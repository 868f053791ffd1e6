#include "petri/parallel.hpp"

#include <algorithm>
#include <barrier>
#include <bit>
#include <cstring>
#include <exception>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>

#include "petri/checkpoint.hpp"
#include "petri/reuse.hpp"
#include "util/arena.hpp"
#include "util/steal_deque.hpp"

namespace rap::petri {

namespace {

constexpr std::size_t kWordBits = util::BitVec::kWordBits;

void copy_words(std::uint64_t* dst, const std::uint64_t* src,
                std::size_t n) {
    if (n != 0) std::memcpy(dst, src, n * sizeof(std::uint64_t));
}

/// Deterministic total order on fixed-width word payloads — the
/// canonical tie-break wherever worker scheduling would otherwise leak
/// into a result (witness choice, deadlock and violation order).
bool words_less(const std::uint64_t* a, const std::uint64_t* b,
                std::size_t n) noexcept {
    for (std::size_t i = 0; i < n; ++i) {
        if (a[i] != b[i]) return a[i] < b[i];
    }
    return false;
}

void spin_pause(unsigned round) noexcept {
    if (round < 64) {
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();
#endif
    } else {
        std::this_thread::yield();
    }
}

}  // namespace

// ------------------------------------------- ConcurrentMarkingStore --

ConcurrentMarkingStore::ConcurrentMarkingStore(std::size_t marking_words,
                                               std::size_t meta_words)
    : words_(std::max<std::size_t>(marking_words, 1)),
      record_words_(words_ + meta_words),
      table_size_(std::size_t{1} << 12),
      table_(std::make_unique<std::atomic<std::uint64_t>[]>(table_size_)) {
    for (std::size_t i = 0; i < table_size_; ++i) {
        table_[i].store(kEmptySlot, std::memory_order_relaxed);
    }
    // Power-of-two records per block so the id->record map is a
    // shift+mask; ~128K-word blocks amortise allocation at 19M records
    // while stranding little of a small model's last block.
    const std::size_t rpb = std::bit_floor(std::max<std::size_t>(
        (std::size_t{1} << 14) / record_words_, 1));
    shift_ = static_cast<std::size_t>(std::bit_width(rpb) - 1);
    mask_ = static_cast<std::uint32_t>(rpb - 1);
}

std::size_t ConcurrentMarkingStore::size() const noexcept {
    // Between layers (the only place this is read) capacity losers have
    // repaired the counter, so it equals the number of owned records.
    return count_.load(std::memory_order_acquire);
}

std::uint64_t ConcurrentMarkingStore::hash(const std::uint64_t* words)
    const noexcept {
    return hash_marking_words(words, words_);
}

ConcurrentMarkingStore::InternResult ConcurrentMarkingStore::intern(
    const std::uint64_t* words, std::size_t capacity_limit,
    const std::uint64_t* meta_init, std::size_t meta_init_words) {
    const std::size_t mask = table_size_ - 1;
    const std::uint64_t h = hash(words);
    const std::uint64_t fragment = h & 0xFFFFFFFF00000000ULL;
    std::size_t slot = static_cast<std::size_t>(h) & mask;
    unsigned spins = 0;
    for (;;) {
        std::uint64_t entry = table_[slot].load(std::memory_order_acquire);
        if (entry == kEmptySlot) {
            if (!table_[slot].compare_exchange_weak(
                    entry, pack(h, kPendingId), std::memory_order_acq_rel,
                    std::memory_order_acquire)) {
                continue;  // lost the claim; re-examine the same slot
            }
            const std::uint32_t id =
                count_.fetch_add(1, std::memory_order_acq_rel);
            if (id >= capacity_limit) {
                // Repair the counter (so size() == capacity exactly) and
                // resolve the claim: the store is full for everyone.
                count_.fetch_sub(1, std::memory_order_acq_rel);
                table_[slot].store(pack(h, kCapacityId),
                                   std::memory_order_release);
                return {kNone, false};
            }
            // The id is the record's position; its block was
            // zero-provisioned by the last serial reserve, so the meta
            // words beyond meta_init start zeroed.
            std::uint64_t* rec = record(id);
            copy_words(rec, words, words_);
            // Pre-publication meta (the canonical-min witness link and
            // depth): racing readers that learn the id below must never
            // see it uninitialised.
            copy_words(rec + words_, meta_init, meta_init_words);
            table_[slot].store(pack(h, id), std::memory_order_release);
            return {id, true};
        }
        const auto entry_id = static_cast<std::uint32_t>(entry);
        if (entry_id == kCapacityId) return {kNone, false};
        if ((entry & 0xFFFFFFFF00000000ULL) == fragment) {
            if (entry_id == kPendingId) {
                // Same fragment, record mid-publication: it may be our
                // marking, so wait for the claimant to resolve the slot.
                spin_pause(spins++);
                continue;
            }
            if (std::memcmp(record(entry_id), words,
                            words_ * sizeof(std::uint64_t)) == 0) {
                return {entry_id, false};
            }
        }
        slot = (slot + 1) & mask;
    }
}

std::uint32_t ConcurrentMarkingStore::find(
    const std::uint64_t* words) const noexcept {
    const std::size_t mask = table_size_ - 1;
    const std::uint64_t h = hash(words);
    const std::uint64_t fragment = h & 0xFFFFFFFF00000000ULL;
    std::size_t slot = static_cast<std::size_t>(h) & mask;
    for (;;) {
        const std::uint64_t entry =
            table_[slot].load(std::memory_order_acquire);
        if (entry == kEmptySlot) return kNone;
        const auto entry_id = static_cast<std::uint32_t>(entry);
        // Capacity tombstones sit mid-probe-chain; records inserted
        // before the cap was hit can live beyond them, so skip past.
        if (entry_id != kCapacityId && entry_id != kPendingId &&
            (entry & 0xFFFFFFFF00000000ULL) == fragment &&
            std::memcmp(record(entry_id), words,
                        words_ * sizeof(std::uint64_t)) == 0) {
            return entry_id;
        }
        slot = (slot + 1) & mask;
    }
}

void ConcurrentMarkingStore::reserve(std::size_t needed) {
    // make_unique value-initialises: a winner's record starts zeroed.
    const std::size_t rpb = std::size_t{mask_} + 1;
    while (reserved_ < needed) {
        blocks_.push_back(
            std::make_unique<std::uint64_t[]>(rpb * record_words_));
        reserved_ += rpb;
    }
    std::size_t want = table_size_;
    while (needed * 8 >= want * 7) want *= 2;
    if (want == table_size_) return;
    auto table = std::make_unique<std::atomic<std::uint64_t>[]>(want);
    for (std::size_t i = 0; i < want; ++i) {
        table[i].store(kEmptySlot, std::memory_order_relaxed);
    }
    const std::size_t mask = want - 1;
    const std::size_t count = count_.load(std::memory_order_acquire);
    for (std::uint32_t id = 0; id < count; ++id) {
        const std::uint64_t h = hash(record(id));
        std::size_t slot = static_cast<std::size_t>(h) & mask;
        while (table[slot].load(std::memory_order_relaxed) != kEmptySlot) {
            slot = (slot + 1) & mask;
        }
        table[slot].store(pack(h, id), std::memory_order_relaxed);
    }
    table_ = std::move(table);
    table_size_ = want;
}

std::size_t ConcurrentMarkingStore::record_bytes() const noexcept {
    return reserved_ * record_words_ * sizeof(std::uint64_t);
}

std::size_t ConcurrentMarkingStore::resident_bytes() const noexcept {
    return record_bytes() + table_size_ * sizeof(std::uint64_t) +
           blocks_.capacity() * sizeof(void*);
}

StoreStats ConcurrentMarkingStore::stats() const noexcept {
    StoreStats s;
    s.records = size();
    s.slots = table_size_;
    s.table_bytes = table_size_ * sizeof(std::uint64_t);
    s.arena_bytes = record_bytes();
    return s;
}

// -------------------------------------- ParallelReachabilityExplorer --

std::size_t ParallelReachabilityExplorer::resolve_threads(
    std::size_t requested) noexcept {
    if (requested != 0) return std::max<std::size_t>(requested, 1);
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

ParallelReachabilityExplorer::ParallelReachabilityExplorer(
    const Net& net, ReachabilityOptions options)
    : net_(net),
      options_(options),
      owned_(std::in_place, net),
      compiled_(&*owned_),
      threads_(resolve_threads(options.threads)) {}

ParallelReachabilityExplorer::ParallelReachabilityExplorer(
    const CompiledNet& compiled, ReachabilityOptions options)
    : net_(compiled.net()),
      options_(options),
      compiled_(&compiled),
      threads_(resolve_threads(options.threads)) {}

namespace {

/// One exploration pass: all shared state of the layer-synchronous BFS.
/// Workers only write their own WorkerCtx mid-layer; everything else
/// mutates in the barrier's serial completion step or before/after the
/// worker phase.
///
/// Memory layout (the diet that reaches the 19M-state OPE models): a
/// record is marking words plus, when the pass can build a trace or
/// reduces, two meta words — the atomic (via << 32 | parent) canonical
/// witness link and the BFS depth. The
/// enabled bitsets live OUTSIDE the records on scratch passes: each
/// worker keeps two ping-pong arenas of rows, one holding the frontier
/// being expanded, one filling with discoveries, and the barrier's serial
/// step recycles the arena of the layer that just finished — so only
/// ~two BFS layers of enabled words are ever resident instead of all of
/// them. Reuse passes keep the rows in the shared records instead, so
/// they survive into the next pass.
class ParallelPass {
public:
    ParallelPass(const Net& net, const CompiledNet& compiled,
                 const ReachabilityOptions& options, const MultiQuery& query,
                 std::size_t workers, ReuseStore* reuse)
        : net_(net),
          compiled_(compiled),
          query_(query),
          cap_(std::max<std::size_t>(options.max_states, 1)),
          mwords_(compiled.marking_words()),
          twords_(compiled.enabled_words()),
          workers_(workers),
          stop_(options.stop),
          reuse_(reuse),
          por_(make_por(compiled, options, query)),
          tight_(por_.has_value() && reuse == nullptr &&
                 !query.check_persistence && !por_->proviso_needed()),
          maintain_tree_(!query.goals.empty() || query.check_persistence),
          meta_words_(maintain_tree_ || por_.has_value() ? kMetaWords : 0),
          store_(reuse != nullptr
                     ? reuse->store()
                     : owned_store_.emplace(mwords_, meta_words_)),
          checkpoint_path_(options.checkpoint_path),
          save_every_states_(options.checkpoint_every != 0
                                 ? options.checkpoint_every
                                 : kDefaultCheckpointEvery),
          resume_(options.resume.get()),
          resolved_(query.goals.size(), 0),
          witness_id_(query.goals.size(), ConcurrentMarkingStore::kNone),
          ctx_(workers),
          deques_(workers) {
        // Reduced passes that never widen (no proviso, no persistence)
        // only ever expand the ample set, so the diet arenas account
        // rows at ample width: each row stores [full | ample], computed
        // once at discovery, and out-edge provisioning counts ample bits
        // — the reserve no longer sizes tables for a frontier the
        // reduction will never fire.
        const std::size_t row_words = twords_ * (tight_ ? 2 : 1);
        for (WorkerCtx& ctx : ctx_) {
            ctx.best.assign(query.goals.size(),
                            ConcurrentMarkingStore::kNone);
            ctx.child.assign(std::max<std::size_t>(mwords_, 1), 0);
            ctx.scratch = Marking(net.place_count());
            if (por_) ctx.ample.assign(twords_, 0);
            // Small blocks: these hold ~one BFS layer per worker and are
            // recycled every other barrier, so the default block size
            // would pin far more than they ever use.
            ctx.earena.reserve(2);
            ctx.earena.emplace_back(row_words, std::size_t{1} << 12);
            ctx.earena.emplace_back(row_words, std::size_t{1} << 12);
        }
        unresolved_ = query.goals.size();
        can_early_stop_ = options.stop_at_first_match &&
                          !query.collect_deadlocks &&
                          !query.check_persistence && !query.goals.empty();
    }

    MultiResult run();

    /// Footprint snapshot for the abort path: whatever was interned and
    /// resident when the pass died. Serial only (workers joined).
    MemoryStats footprint() const {
        MemoryStats stats;
        stats.records = store_.size();
        stats.record_bytes = store_.record_bytes();
        stats.resident_bytes = resident_now();
        stats.peak_bytes = std::max(peak_bytes_, stats.resident_bytes);
        stats.store = store_.stats();
        return stats;
    }

private:
    /// Builds the pass's reduction context, or nullopt when reduction is
    /// off / inactive (so `if (por_)` is the single activity test).
    static std::optional<PorContext> make_por(
        const CompiledNet& compiled, const ReachabilityOptions& options,
        const MultiQuery& query) {
        if (!options.por) return std::nullopt;
        PorRequest request;
        request.goals = query.goals;
        request.check_persistence = query.check_persistence;
        request.persistence_exempt = query.persistence_exempt;
        std::optional<PorContext> por(std::in_place, compiled, request);
        if (!por->active()) por.reset();
        return por;
    }

    struct LocalViolation {
        std::uint32_t state;  ///< id of the marking the pair conflicts at
        std::uint32_t depth;  ///< its BFS depth (trace length)
        TransitionId fired;
        TransitionId disabled;
    };

    /// Per-worker mutable state; cache-line aligned so neighbouring
    /// workers' per-edge counter updates do not false-share.
    struct alignas(64) WorkerCtx {
        std::vector<std::uint32_t> out;  ///< next-layer discoveries
        /// Enabled-set row of each `out` entry (worker arena on scratch
        /// passes, record interior on reuse passes), stitched into
        /// frontier_rows_ at the barrier.
        std::vector<const std::uint64_t*> out_rows;
        std::vector<std::uint32_t> best;  ///< per-goal best hit this layer
        std::vector<std::uint32_t> deadlocks;
        std::vector<LocalViolation> violations;
        std::vector<std::uint64_t> child;  ///< successor marking scratch
        Marking scratch;                   ///< predicate evaluation view
        /// Ping-pong enabled-row arenas (frontier cache mode): [parity]
        /// fills with discoveries while [1 - parity] backs the frontier.
        std::vector<util::WordArena> earena;
        PorContext::Scratch por_scratch;   ///< reduce() working set
        std::vector<std::uint64_t> ample;  ///< stubborn-subset bitset
        PorStats por;                      ///< this worker's share
        std::size_t edges = 0;
        std::size_t out_edges = 0;  ///< enabled-bit sum of discoveries
    };

    const std::uint64_t* marking_of(std::uint32_t id) const {
        return store_[id];
    }

    Marking materialize(std::uint32_t id) const {
        Marking m(net_.place_count());
        copy_words(m.word_data(), marking_of(id), m.word_count());
        return m;
    }

    std::size_t enabled_popcount(const std::uint64_t* enabled) const {
        std::size_t n = 0;
        for (std::size_t w = 0; w < twords_; ++w) {
            n += static_cast<std::size_t>(std::popcount(enabled[w]));
        }
        return n;
    }

    bool violation_less(const LocalViolation& a,
                        const LocalViolation& b) const {
        if (a.depth != b.depth) return a.depth < b.depth;
        const std::uint64_t* ma = marking_of(a.state);
        const std::uint64_t* mb = marking_of(b.state);
        if (std::memcmp(ma, mb, mwords_ * sizeof(std::uint64_t)) != 0) {
            return words_less(ma, mb, mwords_);
        }
        if (a.fired != b.fired) return a.fired < b.fired;
        return a.disabled < b.disabled;
    }

    /// Evaluates deadlock collection and pending goals on a freshly
    /// published state.
    void visit(std::uint32_t id, const std::uint64_t* enabled,
               WorkerCtx& ctx) {
        bool dead = true;
        for (std::size_t w = 0; w < twords_; ++w) {
            if (enabled[w] != 0) {
                dead = false;
                break;
            }
        }
        if (dead && query_.collect_deadlocks) ctx.deadlocks.push_back(id);
        if (unresolved_ == 0) return;
        bool scratch_ready = false;
        for (std::size_t g = 0; g < query_.goals.size(); ++g) {
            if (resolved_[g]) continue;
            const Predicate& goal = *query_.goals[g];
            bool match = false;
            if (goal.kind() == Predicate::Kind::Deadlock) {
                match = dead;
            } else {
                if (!scratch_ready) {
                    copy_words(ctx.scratch.word_data(), marking_of(id),
                               ctx.scratch.word_count());
                    scratch_ready = true;
                }
                match = goal(net_, ctx.scratch);
            }
            if (!match) continue;
            // Keep the canonical (lexicographically smallest) hit of the
            // layer so witnesses do not depend on worker scheduling.
            if (ctx.best[g] == ConcurrentMarkingStore::kNone ||
                words_less(marking_of(id), marking_of(ctx.best[g]),
                           mwords_)) {
                ctx.best[g] = id;
            }
        }
    }

    void check_persistence_edges(std::uint32_t head, TransitionId fired,
                                 const std::uint64_t* head_enabled,
                                 WorkerCtx& ctx) {
        for (std::uint32_t u : compiled_.affected(fired)) {
            if (u == fired.value) continue;
            if (((head_enabled[u / kWordBits] >> (u % kWordBits)) & 1) ==
                0) {
                continue;  // u was not enabled before `fired` fired
            }
            const TransitionId ut{u};
            if (compiled_.is_enabled(ctx.child.data(), ut)) continue;
            if (query_.persistence_exempt &&
                query_.persistence_exempt(net_, fired, ut)) {
                continue;
            }
            ctx.violations.push_back(
                {head, static_cast<std::uint32_t>(depth_), fired, ut});
        }
        // Bounded collection: each worker only ever needs its own
        // canonically-smallest K (min-K of a union is the min-K of the
        // parts' min-Ks, whatever the edge partition was).
        const std::size_t max = query_.persistence_max_violations;
        if (max != SIZE_MAX &&
            ctx.violations.size() > std::max<std::size_t>(2 * max, 64)) {
            std::sort(ctx.violations.begin(), ctx.violations.end(),
                      [this](const LocalViolation& a,
                             const LocalViolation& b) {
                          return violation_less(a, b);
                      });
            ctx.violations.resize(max);
        }
    }

    /// Canonical-min maintenance on a same-layer duplicate edge: if the
    /// rediscovered state sits one layer deeper than the expanding
    /// frontier, race the (parent marking, via) pair into its witness
    /// link, keeping the lexicographically smallest. The final value at
    /// the barrier is the min over every fired in-edge — independent of
    /// worker scheduling, so traces stay deterministic across runs and
    /// thread counts.
    void cas_witness_link(std::uint32_t child, std::uint32_t parent,
                          TransitionId via) {
        std::uint64_t* record = store_.record_mut(child);
        // Depth is written before the id is published and never again.
        // Reuse passes track freshness in the claim word instead — their
        // callers only get here for next-layer states.
        if (reuse_ == nullptr && record[mwords_ + 1] != depth_ + 1) return;
        std::atomic_ref<std::uint64_t> link(record[mwords_]);
        const std::uint64_t cand =
            (std::uint64_t{via.value} << 32) | parent;
        const std::uint64_t* pm = marking_of(parent);
        std::uint64_t cur = link.load(std::memory_order_acquire);
        for (;;) {
            const auto cur_parent = static_cast<std::uint32_t>(cur);
            bool smaller;
            if (cur_parent == parent) {
                smaller = via.value < static_cast<std::uint32_t>(cur >> 32);
            } else {
                // Markings are interned: distinct parent ids hold
                // distinct markings, so the order is strict.
                smaller = words_less(pm, marking_of(cur_parent), mwords_);
            }
            if (!smaller) return;
            if (link.compare_exchange_weak(cur, cand,
                                           std::memory_order_acq_rel,
                                           std::memory_order_acquire)) {
                return;
            }
        }
    }

    /// Reuse-mode insert path of expand_edge: the successor is looked up
    /// in the shared cross-pass store and *claimed* for this pass's epoch
    /// — intern's inserted bit no longer distinguishes fresh discoveries
    /// (records resident from earlier passes are physical duplicates but
    /// logically new here). The claim winner consumes one unit of the
    /// max_states budget, writes the witness link, and recomputes the
    /// enabled row only when the cached one is stale for the attached
    /// structure; losers treat the state exactly like a scratch
    /// duplicate. ctx.child holds the successor marking on entry.
    bool reuse_edge(std::uint32_t head, TransitionId t,
                    const std::uint64_t* parent_row, WorkerCtx& ctx,
                    bool& fresh_seen) {
        const auto interned = store_.intern(ctx.child.data(), provision_cap_);
        if (interned.id == ConcurrentMarkingStore::kNone) {
            // Physical exhaustion: provisioning capped this layer's
            // inserts at the remaining claim budget, and every inserted
            // record's claim completes unconditionally, so the pass ends
            // with exactly max_states claims — the scratch truncation
            // contract.
            truncated_.store(true, std::memory_order_relaxed);
            abort_now_.store(true, std::memory_order_release);
            return false;
        }
        std::uint64_t* record = store_.record_mut(interned.id);
        const std::atomic_ref<std::uint64_t> cl = reuse_->claim(record);
        const std::uint64_t pending =
            (epoch_ << 32) | ReuseStore::kPendingDepth;
        std::uint64_t cur = cl.load(std::memory_order_acquire);
        while ((cur >> 32) != epoch_) {
            if (!cl.compare_exchange_weak(cur, pending,
                                          std::memory_order_acq_rel,
                                          std::memory_order_acquire)) {
                continue;
            }
            // Claim won: this worker alone publishes the state this pass.
            // The budget slot is taken after winning so every slot below
            // cap_ maps to a claim that completes.
            const std::uint32_t slot =
                pass_claims_.fetch_add(1, std::memory_order_acq_rel);
            if (slot >= cap_) {
                pass_claims_.fetch_sub(1, std::memory_order_acq_rel);
                cl.store((epoch_ << 32) | ReuseStore::kOverflowDepth,
                         std::memory_order_release);
                truncated_.store(true, std::memory_order_relaxed);
                abort_now_.store(true, std::memory_order_release);
                return false;
            }
            // Atomic because same-layer losers may CAS the link
            // concurrently once the claim publishes below.
            std::atomic_ref<std::uint64_t>(record[mwords_])
                .store((std::uint64_t{t.value} << 32) | head,
                       std::memory_order_relaxed);
            // On success the CAS left the replaced claim in `cur`.
            std::uint64_t* row = reuse_->row(record);
            if (!reuse_->row_valid(cur)) {
                copy_words(row, parent_row, twords_);
                compiled_.update_enabled(ctx.child.data(), t, row);
            }
            cl.store((epoch_ << 32) | (depth_ + 1),
                     std::memory_order_release);
            fresh_seen = true;
            ctx.out_edges += enabled_popcount(row);
            visit(interned.id, row, ctx);
            ctx.out.push_back(interned.id);
            ctx.out_rows.push_back(row);
            return true;
        }
        // Already claimed this epoch: a duplicate edge. Wait out a claim
        // mid-publication so the link and row below it are settled.
        std::uint32_t d = static_cast<std::uint32_t>(cur);
        unsigned idle = 0;
        while (d == ReuseStore::kPendingDepth) {
            spin_pause(idle++);
            d = static_cast<std::uint32_t>(
                cl.load(std::memory_order_acquire));
        }
        if (d == ReuseStore::kOverflowDepth) {
            truncated_.store(true, std::memory_order_relaxed);
            abort_now_.store(true, std::memory_order_release);
            return false;
        }
        const bool fresh = d == depth_ + 1;
        if (maintain_tree_ && fresh) cas_witness_link(interned.id, head, t);
        if (por_ && fresh) fresh_seen = true;
        return true;
    }

    void expand(std::uint32_t head, const std::uint64_t* enabled,
                WorkerCtx& ctx) {
        const std::uint64_t* marking = marking_of(head);

        // Reduction decision first — deterministic in (marking, enabled),
        // so the reduced graph is the same whichever worker expands head.
        const std::uint64_t* bits_src = enabled;
        bool reduced = false;
        std::size_t enabled_count = 0;
        std::size_t ample_count = 0;
        if (tight_) {
            // Tight rows carry [full | ample] with the ample set computed
            // at discovery; stats are still recorded here, at expansion,
            // so early-stopped and truncated passes report exactly what
            // non-tight passes do.
            const std::uint64_t* ample_row = enabled + twords_;
            enabled_count = enabled_popcount(enabled);
            ample_count = enabled_popcount(ample_row);
            reduced = std::memcmp(ample_row, enabled,
                                  twords_ * sizeof(std::uint64_t)) != 0;
            ++ctx.por.expansions;
            ctx.por.enabled_transitions += enabled_count;
            if (reduced) ++ctx.por.reduced_expansions;
            ctx.por.expanded_transitions +=
                reduced ? ample_count : enabled_count;
            bits_src = ample_row;
        } else if (por_) {
            enabled_count = enabled_popcount(enabled);
            ++ctx.por.expansions;
            ctx.por.enabled_transitions += enabled_count;
            reduced = por_->reduce(marking, enabled, ctx.ample.data(),
                                   ctx.por_scratch);
            if (reduced) {
                ++ctx.por.reduced_expansions;
                ample_count = enabled_popcount(ctx.ample.data());
                ctx.por.expanded_transitions += ample_count;
                bits_src = ctx.ample.data();
            } else {
                ctx.por.expanded_transitions += enabled_count;
            }
        }

        // Persistence is a property of the FULL graph's edges: under
        // reduction, check every enabled transition's edge up front so
        // the verdict never depends on which edges the stubborn set kept.
        const bool prepass = por_.has_value() && query_.check_persistence;
        if (prepass) {
            for (std::size_t word = 0; word < twords_; ++word) {
                std::uint64_t bits = enabled[word];
                while (bits != 0) {
                    if (abort_now_.load(std::memory_order_relaxed)) return;
                    const TransitionId t{static_cast<std::uint32_t>(
                        word * kWordBits +
                        static_cast<std::size_t>(std::countr_zero(bits)))};
                    bits &= bits - 1;
                    copy_words(ctx.child.data(), marking, mwords_);
                    compiled_.fire(ctx.child.data(), t);
                    check_persistence_edges(head, t, enabled, ctx);
                }
            }
        }

        // True once some successor of head sits in the next BFS layer:
        // the reduced expansion then provably makes progress and the
        // ignoring proviso holds without widening.
        bool fresh_seen = false;

        auto expand_edge = [&](TransitionId t, bool check_edges) -> bool {
            // Per-worker edge-counter stop poll: the serial layer poll
            // alone lets one enormous (or heavily reduced) layer blow
            // straight through a sweep deadline.
            if (stop_ && (ctx.edges & 255u) == 0 && stop_()) {
                truncated_.store(true, std::memory_order_relaxed);
                abort_now_.store(true, std::memory_order_release);
                return false;
            }
            ++ctx.edges;
            copy_words(ctx.child.data(), marking, mwords_);
            compiled_.fire(ctx.child.data(), t);

            if (check_edges && query_.check_persistence) {
                check_persistence_edges(head, t, enabled, ctx);
            }

            if (reuse_ != nullptr) {
                return reuse_edge(head, t, enabled, ctx, fresh_seen);
            }

            const std::uint64_t meta_init[kMetaWords] = {
                (std::uint64_t{t.value} << 32) | head, depth_ + 1};
            const auto interned = store_.intern(ctx.child.data(), cap_,
                                                meta_init, meta_words_);
            if (interned.id == ConcurrentMarkingStore::kNone) {
                truncated_.store(true, std::memory_order_relaxed);
                abort_now_.store(true, std::memory_order_release);
                return false;
            }
            if (!interned.inserted) {
                if (maintain_tree_) {
                    cas_witness_link(interned.id, head, t);
                }
                // The depth word is written pre-publication and never
                // changes, so this read is race-free. Next-layer
                // duplicates count as progress for the ignoring proviso.
                if (por_ &&
                    store_[interned.id][mwords_ + 1] == depth_ + 1) {
                    fresh_seen = true;
                }
                return true;
            }
            fresh_seen = true;

            util::WordArena& arena = ctx.earena[write_parity_];
            std::uint64_t* child_enabled = arena[arena.push(enabled)];
            compiled_.update_enabled(ctx.child.data(), t, child_enabled);
            if (tight_) {
                // Discovery-time reduction: compute the child's ample
                // set into the row's second half (out-edge accounting
                // and the next layer's expansion both read it there).
                std::uint64_t* ample_row = child_enabled + twords_;
                if (!por_->reduce(ctx.child.data(), child_enabled,
                                  ample_row, ctx.por_scratch)) {
                    copy_words(ample_row, child_enabled, twords_);
                }
                ctx.out_edges += enabled_popcount(ample_row);
            } else {
                ctx.out_edges += enabled_popcount(child_enabled);
            }
            visit(interned.id, child_enabled, ctx);
            ctx.out.push_back(interned.id);
            ctx.out_rows.push_back(child_enabled);
            return true;
        };

        auto expand_bits = [&](const std::uint64_t* src,
                               const std::uint64_t* minus,
                               bool check_edges) -> bool {
            for (std::size_t word = 0; word < twords_; ++word) {
                std::uint64_t bits = src[word];
                if (minus != nullptr) bits &= ~minus[word];
                while (bits != 0) {
                    if (abort_now_.load(std::memory_order_relaxed)) {
                        return false;
                    }
                    const TransitionId t{static_cast<std::uint32_t>(
                        word * kWordBits +
                        static_cast<std::size_t>(std::countr_zero(bits)))};
                    bits &= bits - 1;
                    if (!expand_edge(t, check_edges)) return false;
                }
            }
            return true;
        };

        if (!expand_bits(bits_src, nullptr, /*check_edges=*/!prepass)) {
            return;
        }

        // Ignoring proviso: a reduced expansion none of whose stubborn
        // successors reached the next layer could postpone a visible
        // action forever — widen to the full enabled set. Deadlock-only
        // passes never need this (proviso_needed() is false).
        if (reduced && por_->proviso_needed() && !fresh_seen) {
            ++ctx.por.proviso_expansions;
            ctx.por.expanded_transitions += enabled_count - ample_count;
            expand_bits(enabled, ctx.ample.data(), /*check_edges=*/false);
        }
    }

    void run_chunk(std::uint64_t task, WorkerCtx& ctx) {
        const auto begin = static_cast<std::size_t>(task >> 32);
        const auto end =
            static_cast<std::size_t>(static_cast<std::uint32_t>(task));
        for (std::size_t i = begin; i < end; ++i) {
            if (abort_now_.load(std::memory_order_relaxed)) return;
            expand(frontier_[i], frontier_rows_[i], ctx);
        }
    }

    /// Work-stealing scheduling: drain the own deque, then steal the
    /// oldest chunks of any loaded neighbour. Exiting is exact — chunks
    /// are only pushed by the serial step, so once every deque reads
    /// empty no further intra-layer work can appear.
    void process_layer(std::size_t w) {
        WorkerCtx& ctx = ctx_[w];
        unsigned idle = 0;
        std::uint64_t task;
        for (;;) {
            if (abort_now_.load(std::memory_order_relaxed)) return;
            if (deques_[w].pop(task)) {
                idle = 0;
                run_chunk(task, ctx);
                continue;
            }
            bool ran = false;
            for (std::size_t k = 1; k < workers_; ++k) {
                if (deques_[(w + k) % workers_].steal(task)) {
                    ran = true;
                    run_chunk(task, ctx);
                    break;
                }
            }
            if (ran) {
                idle = 0;
                continue;
            }
            bool all_empty = true;
            for (std::size_t v = 0; v < workers_ && all_empty; ++v) {
                all_empty = deques_[v].empty();
            }
            if (all_empty) return;
            spin_pause(idle++);  // transient: a steal race is resolving
        }
    }

    void process_layer_guarded(std::size_t w) noexcept {
        try {
            process_layer(w);
        } catch (...) {
            {
                const std::lock_guard<std::mutex> lock(error_mu_);
                if (!error_) error_ = std::current_exception();
            }
            abort_now_.store(true, std::memory_order_release);
        }
    }

    /// Fills the per-worker deques with the current frontier, dealt as
    /// contiguous chunks so the no-steal case degenerates to a static
    /// partition.
    void prepare_frontier_schedule() {
        const std::size_t chunk = std::clamp<std::size_t>(
            frontier_.size() / (workers_ * 8), 1, 256);
        const std::size_t tasks = (frontier_.size() + chunk - 1) / chunk;
        const std::size_t per_worker = (tasks + workers_ - 1) / workers_;
        for (util::StealDeque& deque : deques_) {
            deque.reset_and_reserve(per_worker);
        }
        std::size_t begin = 0;
        for (std::size_t task = 0; begin < frontier_.size(); ++task) {
            const std::size_t end = std::min(begin + chunk, frontier_.size());
            deques_[task / per_worker].push(
                (static_cast<std::uint64_t>(begin) << 32) |
                static_cast<std::uint32_t>(end));
            begin = end;
        }
    }

    /// Bytes resident right now, sampled at layer boundaries for
    /// memory_stats(): record blocks + table, the live enabled-row
    /// arenas, and the frontier bookkeeping.
    std::size_t resident_now() const {
        std::size_t bytes = store_.resident_bytes();
        for (const WorkerCtx& ctx : ctx_) {
            for (const util::WordArena& arena : ctx.earena) {
                bytes += arena.resident_bytes();
            }
            bytes += ctx.out.capacity() * sizeof(std::uint32_t) +
                     ctx.out_rows.capacity() * sizeof(std::uint64_t*);
        }
        bytes += frontier_.capacity() * sizeof(std::uint32_t) +
                 frontier_rows_.capacity() * sizeof(std::uint64_t*);
        return bytes;
    }

    /// Serial (barrier completion): snapshots the pass at the layer
    /// boundary layer_done() just stitched — records with their witness
    /// meta in dense id order, the next frontier's ids, every verdict
    /// accumulator. Enabled rows are derived data and stay out; resume
    /// recomputes the frontier's. Throws on IO failure (caught by the
    /// caller and routed through the pass's error path).
    void save_checkpoint() const {
        StoreCheckpoint ckpt;
        ckpt.structure_digest = compiled_.structure_digest();
        ckpt.marking_words = static_cast<std::uint32_t>(mwords_);
        ckpt.meta_words = static_cast<std::uint32_t>(meta_words_);
        const std::size_t n = store_.size();
        const std::size_t stride = mwords_ + meta_words_;
        ckpt.record_count = n;
        ckpt.records.reserve(n * stride);
        for (std::uint32_t id = 0; id < n; ++id) {
            const std::uint64_t* rec = store_[id];
            ckpt.records.insert(ckpt.records.end(), rec, rec + stride);
        }
        ckpt.depth = depth_;
        ckpt.frontier = frontier_;
        ckpt.goal_hits = witness_id_;
        for (const WorkerCtx& ctx : ctx_) {
            ckpt.edges_explored += ctx.edges;
            ckpt.deadlocks.insert(ckpt.deadlocks.end(),
                                  ctx.deadlocks.begin(),
                                  ctx.deadlocks.end());
            for (const LocalViolation& v : ctx.violations) {
                ckpt.violations.push_back(
                    {v.state, v.depth, v.fired.value, v.disabled.value});
            }
            ckpt.por.merge(ctx.por);
        }
        ckpt.save(checkpoint_path_);
    }

    /// Rebuilds the pass from resume_: re-interns the records in dense
    /// id order (layout-independent), seeds every verdict accumulator
    /// into worker 0's context, and recomputes the frontier's enabled
    /// rows. Returns false when the resumed pass has nothing left to do
    /// (caller assembles immediately). Throws on any mismatch — a resume
    /// point must never silently restart or corrupt an exploration.
    bool seed_from_checkpoint() {
        const StoreCheckpoint& ckpt = *resume_;
        if (ckpt.structure_digest != compiled_.structure_digest()) {
            throw std::runtime_error(
                "resume: checkpoint structural digest does not match this "
                "net — the interned ids describe a different structure");
        }
        if (ckpt.marking_words != mwords_ || ckpt.meta_words != meta_words_) {
            throw std::runtime_error(
                "resume: checkpoint record geometry does not match");
        }
        if (ckpt.record_count == 0 || ckpt.record_count > cap_) {
            throw std::runtime_error(
                "resume: checkpoint record count is out of range for this "
                "pass's max_states");
        }
        if (ckpt.goal_hits.size() != query_.goals.size()) {
            throw std::runtime_error(
                "resume: checkpoint goal count does not match the query");
        }
        // A checksummed file can still carry ids its writer never
        // produced: every state id must name one of the checkpoint's own
        // records and every transition id one of this net's transitions.
        const auto check_state = [&](std::uint32_t id, const char* what) {
            if (id >= ckpt.record_count) {
                throw std::runtime_error(
                    std::string("resume: checkpoint ") + what +
                    " references an id beyond its own records");
            }
        };
        for (const std::uint32_t id : ckpt.frontier) {
            check_state(id, "frontier");
        }
        for (const std::uint32_t id : ckpt.goal_hits) {
            if (id != ConcurrentMarkingStore::kNone) {
                check_state(id, "goal hit");
            }
        }
        for (const std::uint32_t id : ckpt.deadlocks) {
            check_state(id, "deadlock");
        }
        for (const StoreCheckpoint::Violation& v : ckpt.violations) {
            check_state(v.state, "violation");
            if (v.fired >= compiled_.transition_count() ||
                v.disabled >= compiled_.transition_count()) {
                throw std::runtime_error(
                    "resume: checkpoint violation names a transition this "
                    "net does not have");
            }
        }
        const Marking m0 = net_.initial_marking();
        copy_words(ctx_[0].child.data(), m0.word_data(), m0.word_count());
        if (std::memcmp(ckpt.record(0), ctx_[0].child.data(),
                        mwords_ * sizeof(std::uint64_t)) != 0) {
            throw std::runtime_error(
                "resume: checkpoint root marking differs from this net's "
                "initial marking (reconfigured since the checkpoint?)");
        }
        store_.reserve(static_cast<std::size_t>(ckpt.record_count));
        for (std::uint64_t id = 0; id < ckpt.record_count; ++id) {
            const std::uint64_t* rec = ckpt.record(id);
            const auto interned =
                store_.intern(rec, cap_, rec + mwords_, meta_words_);
            if (!interned.inserted || interned.id != id) {
                throw std::runtime_error(
                    "resume: checkpoint records are not unique dense-id "
                    "markings — corrupted or foreign checkpoint");
            }
        }
        depth_ = static_cast<std::size_t>(ckpt.depth);
        ctx_[0].edges = static_cast<std::size_t>(ckpt.edges_explored);
        ctx_[0].por = ckpt.por;
        ctx_[0].por.active = false;  // activity is this pass's, not saved
        ctx_[0].deadlocks = ckpt.deadlocks;
        for (const StoreCheckpoint::Violation& v : ckpt.violations) {
            ctx_[0].violations.push_back({v.state, v.depth,
                                          TransitionId{v.fired},
                                          TransitionId{v.disabled}});
        }
        unresolved_ = 0;
        for (std::size_t g = 0; g < query_.goals.size(); ++g) {
            witness_id_[g] = ckpt.goal_hits[g];
            resolved_[g] =
                ckpt.goal_hits[g] != ConcurrentMarkingStore::kNone ? 1 : 0;
            if (!resolved_[g]) ++unresolved_;
        }
        frontier_ = ckpt.frontier;
        if (frontier_.empty() || (can_early_stop_ && unresolved_ == 0)) {
            return false;  // the checkpointed pass was already settled
        }
        // Frontier enabled rows are derived data: recompute them (and the
        // tight layout's ample halves) exactly where discovery would have
        // put them: worker 0's read-parity arena.
        std::size_t out_edges = 0;
        frontier_rows_.reserve(frontier_.size());
        for (const std::uint32_t id : frontier_) {
            util::WordArena& arena = ctx_[0].earena[1 - write_parity_];
            std::uint64_t* row = arena[arena.push_zero()];
            compiled_.enabled_set(store_[id], row);
            if (tight_) {
                std::uint64_t* ample_row = row + twords_;
                if (!por_->reduce(store_[id], row, ample_row,
                                  ctx_[0].por_scratch)) {
                    copy_words(ample_row, row, twords_);
                }
                out_edges += enabled_popcount(ample_row);
            } else {
                out_edges += enabled_popcount(row);
            }
            frontier_rows_.push_back(row);
        }
        store_.reserve(
            std::min(store_.size() + out_edges, cap_));
        prepare_frontier_schedule();
        return true;
    }

    /// Serial reuse-mode provisioning: the next layer can insert at most
    /// min(out-edge count, remaining claim budget) new records into the
    /// shared store — capping physical growth at the budget is what makes
    /// physical-exhaustion truncation land on exactly max_states claims.
    void provision_layer(std::size_t out_edges) {
        const std::size_t claimed =
            pass_claims_.load(std::memory_order_relaxed);
        const std::size_t budget_left = cap_ - std::min(cap_, claimed);
        provision_cap_ = store_.size() + std::min(out_edges, budget_left);
        store_.reserve(provision_cap_);
    }

    /// Serial between-layers step, run by the barrier's completion while
    /// every worker is parked: stitches the next frontier, provisions the
    /// store, settles this layer's goal hits, and decides whether the
    /// pass is done.
    void layer_done() noexcept {
        // Witness links live in the records; the expanded layer's id list
        // is dead weight at 19M-state scale.
        expanded_since_save_ += frontier_.size();
        frontier_.clear();
        frontier_rows_.clear();
        // Recycle the arena that backed the just-expanded frontier: its
        // rows are never read again, the next layer's discoveries
        // overwrite them in place.
        write_parity_ = 1 - write_parity_;
        for (WorkerCtx& ctx : ctx_) {
            ctx.earena[write_parity_].clear();
        }
        std::size_t out_edges = 0;
        std::size_t violations = 0;
        for (WorkerCtx& ctx : ctx_) {
            frontier_.insert(frontier_.end(), ctx.out.begin(),
                             ctx.out.end());
            frontier_rows_.insert(frontier_rows_.end(),
                                  ctx.out_rows.begin(),
                                  ctx.out_rows.end());
            ctx.out.clear();
            ctx.out_rows.clear();
            out_edges += ctx.out_edges;
            ctx.out_edges = 0;
            violations += ctx.violations.size();
        }
        ++depth_;  // frontier_ now holds states at this BFS depth

        for (std::size_t g = 0; g < resolved_.size(); ++g) {
            if (resolved_[g]) continue;
            std::uint32_t best = ConcurrentMarkingStore::kNone;
            for (WorkerCtx& ctx : ctx_) {
                const std::uint32_t hit = ctx.best[g];
                ctx.best[g] = ConcurrentMarkingStore::kNone;
                if (hit == ConcurrentMarkingStore::kNone) continue;
                if (best == ConcurrentMarkingStore::kNone ||
                    words_less(marking_of(hit), marking_of(best),
                               mwords_)) {
                    best = hit;
                }
            }
            if (best != ConcurrentMarkingStore::kNone) {
                resolved_[g] = 1;
                witness_id_[g] = best;
                --unresolved_;
            }
        }

        peak_bytes_ = std::max(peak_bytes_, resident_now());

        if (stop_ && stop_()) {
            // Cooperative stop (sweep cancellation / timeout), polled
            // once per layer while every worker is parked: end the pass
            // and report it truncated.
            truncated_.store(true, std::memory_order_relaxed);
            done_ = true;
            return;
        }

        if (abort_now_.load(std::memory_order_acquire) ||
            frontier_.empty() || (can_early_stop_ && unresolved_ == 0) ||
            (query_.persistence_stop_at_first && violations != 0)) {
            done_ = true;
            return;
        }

        if (!checkpoint_path_.empty() &&
            expanded_since_save_ >= save_every_states_) {
            expanded_since_save_ = 0;
            try {
                save_checkpoint();
            } catch (...) {
                // IO failure must surface as an aborted pass, not a
                // silently skipped resume point: route it through the
                // same error path a worker exception takes.
                {
                    const std::lock_guard<std::mutex> lock(error_mu_);
                    if (!error_) error_ = std::current_exception();
                }
                abort_now_.store(true, std::memory_order_release);
                done_ = true;
                return;
            }
        }

        if (reuse_ != nullptr) {
            provision_layer(out_edges);
        } else {
            store_.reserve(std::min(store_.size() + out_edges, cap_));
        }
        prepare_frontier_schedule();
    }

    /// Canonical BFS-shortest trace for a stored state: a plain walk over
    /// the records' witness links (already canonical-min when the workers
    /// joined).
    Trace reconstruct(std::uint32_t id) const {
        Trace trace;
        for (;;) {
            const std::uint64_t link = store_[id][mwords_];
            const auto parent = static_cast<std::uint32_t>(link);
            if (parent == ConcurrentMarkingStore::kNone) break;
            trace.firings.push_back(
                TransitionId{static_cast<std::uint32_t>(link >> 32)});
            id = parent;
        }
        std::reverse(trace.firings.begin(), trace.firings.end());
        return trace;
    }

    /// Shared worker-pool loop: runs barrier-synchronized layers until
    /// done_, then assembles (fresh and resumed passes both land here).
    MultiResult run_layers();

    MultiResult assemble();

    const Net& net_;
    const CompiledNet& compiled_;
    const MultiQuery& query_;
    const std::size_t cap_;
    const std::size_t mwords_;
    const std::size_t twords_;
    const std::size_t workers_;
    const std::function<bool()> stop_;  ///< cooperative stop hook
    /// Shared cross-pass store (incremental re-verification), or null
    /// for a scratch pass. Its records carry the enabled rows, which
    /// must survive the pass; scratch passes keep them in the worker
    /// arenas instead (the frontier-only cache).
    ReuseStore* const reuse_;
    /// Stubborn-set reduction of this pass (options.por); absent when off
    /// or fallen back to full exploration. The record's depth word is the
    /// freshness test of its ignoring proviso.
    const std::optional<PorContext> por_;
    /// Ample-width diet accounting: reduction on, never widened (no
    /// proviso, no persistence) — rows are [full | ample] pairs and
    /// out-edge provisioning counts ample bits only.
    const bool tight_;
    /// The CAS witness link is only worth maintaining when the pass can
    /// be asked for a trace.
    const bool maintain_tree_;
    /// Witness meta words per record: the canonical link and the BFS
    /// depth (also the ignoring proviso's freshness test). A bare
    /// explore/count pass reads neither and stores none; a ReuseStore
    /// always carries both.
    static constexpr std::size_t kMetaWords = 2;
    const std::size_t meta_words_;
    static constexpr std::size_t kDefaultCheckpointEvery = 65536;

    /// The pass's private store (scratch mode); reuse passes bind store_
    /// to the ReuseStore's shared one instead.
    std::optional<ConcurrentMarkingStore> owned_store_;
    ConcurrentMarkingStore& store_;
    /// Periodic resume-point persistence (empty = off). Saved in the
    /// barrier's serial step at the first layer boundary after
    /// `save_every_states_` more states were expanded, while every worker
    /// is parked — the records are quiescent, so the snapshot is a
    /// consistent layer boundary by construction.
    const std::string checkpoint_path_;
    const std::size_t save_every_states_;
    const StoreCheckpoint* const resume_;  ///< resume point, or null
    std::size_t expanded_since_save_ = 0;
    std::uint64_t epoch_ = 0;  ///< reuse pass epoch (claims' high half)
    /// Records claimed (= states reached) this pass — reuse mode's
    /// states_explored and its truncation budget.
    std::atomic<std::uint32_t> pass_claims_{0};
    /// Physical intern cap for the current layer (reuse mode): resident
    /// records + the layer's insert bound, set serially.
    std::size_t provision_cap_ = 0;
    std::vector<std::uint32_t> frontier_;
    /// Enabled-set row per frontier index, stitched at the barrier.
    std::vector<const std::uint64_t*> frontier_rows_;
    std::size_t depth_ = 0;  ///< BFS depth of the frontier being expanded
    int write_parity_ = 1;   ///< worker arena receiving discoveries
    std::size_t peak_bytes_ = 0;

    std::vector<std::uint8_t> resolved_;
    std::vector<std::uint32_t> witness_id_;
    std::size_t unresolved_ = 0;

    bool can_early_stop_ = false;

    std::atomic<bool> abort_now_{false};
    std::atomic<bool> truncated_{false};
    bool done_ = false;

    std::vector<WorkerCtx> ctx_;
    std::vector<util::StealDeque> deques_;
    std::mutex error_mu_;
    std::exception_ptr error_;
};

MultiResult ParallelPass::run() {
    if (resume_ != nullptr) {
        if (!seed_from_checkpoint()) return assemble();
        return run_layers();
    }
    // Root state, interned and evaluated serially (depth 0).
    const Marking m0 = net_.initial_marking();
    copy_words(ctx_[0].child.data(), m0.word_data(), m0.word_count());
    std::uint32_t root_id;
    std::uint64_t* root_enabled;
    if (reuse_ != nullptr) {
        epoch_ = reuse_->begin_pass();
        provision_cap_ = store_.size() + 1;
        store_.reserve(provision_cap_);
        root_id = store_.intern(ctx_[0].child.data(), provision_cap_).id;
        pass_claims_.store(1, std::memory_order_relaxed);
        std::uint64_t* record = store_.record_mut(root_id);
        const std::uint64_t prior = reuse_->claim(record).exchange(
            epoch_ << 32, std::memory_order_relaxed);
        record[mwords_] = std::uint64_t{ConcurrentMarkingStore::kNone};
        root_enabled = reuse_->row(record);
        if (!reuse_->row_valid(prior)) {
            compiled_.enabled_set(record, root_enabled);
        }
    } else {
        store_.reserve(std::min<std::size_t>(1, cap_));
        const std::uint64_t root_meta[kMetaWords] = {
            std::uint64_t{ConcurrentMarkingStore::kNone}, 0};
        const auto root = store_.intern(ctx_[0].child.data(), cap_,
                                        root_meta, meta_words_);
        root_id = root.id;
        util::WordArena& arena = ctx_[0].earena[1 - write_parity_];
        root_enabled = arena[arena.push_zero()];
        compiled_.enabled_set(store_[root_id], root_enabled);
        if (tight_) {
            std::uint64_t* ample_row = root_enabled + twords_;
            if (!por_->reduce(store_[root_id], root_enabled, ample_row,
                              ctx_[0].por_scratch)) {
                copy_words(ample_row, root_enabled, twords_);
            }
        }
    }
    visit(root_id, root_enabled, ctx_[0]);
    frontier_.push_back(root_id);
    frontier_rows_.push_back(root_enabled);
    // Settle root hits exactly like a layer boundary would (depth 0, so
    // compensate the depth bump layer_done() applies).
    {
        const std::size_t root_out = enabled_popcount(
            tight_ ? root_enabled + twords_ : root_enabled);
        for (std::size_t g = 0; g < resolved_.size(); ++g) {
            const std::uint32_t hit = ctx_[0].best[g];
            ctx_[0].best[g] = ConcurrentMarkingStore::kNone;
            if (hit == ConcurrentMarkingStore::kNone) continue;
            resolved_[g] = 1;
            witness_id_[g] = hit;
            --unresolved_;
        }
        if ((can_early_stop_ && unresolved_ == 0) || root_out == 0) {
            return assemble();  // nothing to explore / nothing left to ask
        }
        if (reuse_ != nullptr) {
            provision_layer(root_out);
        } else {
            store_.reserve(std::min(1 + root_out, cap_));
        }
        prepare_frontier_schedule();
    }

    return run_layers();
}

MultiResult ParallelPass::run_layers() {
    auto completion = [this]() noexcept { layer_done(); };
    std::barrier sync(static_cast<std::ptrdiff_t>(workers_), completion);

    auto worker_main = [this, &sync](std::size_t w) {
        for (;;) {
            process_layer_guarded(w);
            sync.arrive_and_wait();
            if (done_) break;
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(workers_ - 1);
    for (std::size_t w = 1; w < workers_; ++w) {
        pool.emplace_back(worker_main, w);
    }
    worker_main(0);
    for (std::thread& t : pool) t.join();

    if (error_) std::rethrow_exception(error_);
    return assemble();
}

MultiResult ParallelPass::assemble() {
    // The enabled-row arenas die with the last layer: count them into the
    // peak, then drop them, so resident_bytes is what the pass leaves.
    peak_bytes_ = std::max(peak_bytes_, resident_now());
    for (WorkerCtx& ctx : ctx_) ctx.earena.clear();

    MultiResult result;
    // Reuse passes count the states *this pass* reached (its claims),
    // not the shared store's resident records — identical to what the
    // scratch pass reports, including exact max_states on truncation.
    result.states_explored =
        reuse_ != nullptr
            ? pass_claims_.load(std::memory_order_acquire)
            : store_.size();
    result.truncated = truncated_.load(std::memory_order_acquire);
    result.por.active = por_.has_value();
    for (const WorkerCtx& ctx : ctx_) {
        result.edges_explored += ctx.edges;
        result.por.merge(ctx.por);
    }
    result.memory.records = store_.size();
    result.memory.record_bytes = store_.record_bytes();
    result.memory.resident_bytes = resident_now();
    result.memory.peak_bytes =
        std::max(peak_bytes_, result.memory.resident_bytes);
    result.memory.store = store_.stats();

    if (query_.collect_deadlocks) {
        std::vector<std::uint32_t> dead;
        for (const WorkerCtx& ctx : ctx_) {
            dead.insert(dead.end(), ctx.deadlocks.begin(),
                        ctx.deadlocks.end());
        }
        std::sort(dead.begin(), dead.end(),
                  [this](std::uint32_t a, std::uint32_t b) {
                      return words_less(marking_of(a), marking_of(b),
                                        mwords_);
                  });
        result.deadlocks.reserve(dead.size());
        for (const std::uint32_t id : dead) {
            result.deadlocks.push_back(materialize(id));
        }
    }

    if (query_.check_persistence) {
        std::vector<LocalViolation> all;
        for (const WorkerCtx& ctx : ctx_) {
            all.insert(all.end(), ctx.violations.begin(),
                       ctx.violations.end());
        }
        std::sort(all.begin(), all.end(),
                  [this](const LocalViolation& a, const LocalViolation& b) {
                      return violation_less(a, b);
                  });
        std::size_t keep = query_.persistence_max_violations;
        if (query_.persistence_stop_at_first) {
            keep = std::min<std::size_t>(keep, 1);
        }
        if (all.size() > keep) all.resize(keep);
        result.persistence_violations.reserve(all.size());
        for (const LocalViolation& v : all) {
            result.persistence_violations.push_back(
                {materialize(v.state), v.fired, v.disabled,
                 reconstruct(v.state)});
        }
    }

    result.goals.resize(query_.goals.size());
    for (std::size_t g = 0; g < query_.goals.size(); ++g) {
        ReachabilityResult& r = result.goals[g];
        r.states_explored = result.states_explored;
        r.edges_explored = result.edges_explored;
        r.truncated = result.truncated;
        r.memory = result.memory;
        r.por = result.por;
        if (resolved_[g]) {
            r.witness = materialize(witness_id_[g]);
            r.witness_trace = reconstruct(witness_id_[g]);
        }
    }
    return result;
}

}  // namespace

ReachabilityResult ParallelReachabilityExplorer::find(
    const Predicate& goal) {
    MultiQuery query;
    query.goals = {&goal};
    return std::move(run_query(query).goals[0]);
}

std::vector<ReachabilityResult> ParallelReachabilityExplorer::find_all(
    std::span<const Predicate* const> goals) {
    MultiQuery query;
    query.goals.assign(goals.begin(), goals.end());
    return std::move(run_query(query).goals);
}

ReachabilityResult ParallelReachabilityExplorer::find_deadlocks() {
    const Predicate dead = Predicate::deadlock();
    MultiQuery query;
    query.goals = {&dead};
    query.collect_deadlocks = true;
    auto multi = run_query(query);
    ReachabilityResult result = std::move(multi.goals[0]);
    result.deadlocks = std::move(multi.deadlocks);
    return result;
}

ReachabilityResult ParallelReachabilityExplorer::explore_all() {
    const auto multi = run_query(MultiQuery{});
    ReachabilityResult result;
    result.states_explored = multi.states_explored;
    result.edges_explored = multi.edges_explored;
    result.truncated = multi.truncated;
    result.memory = multi.memory;
    result.por = multi.por;
    return result;
}

std::size_t ParallelReachabilityExplorer::count_states() {
    return explore_all().states_explored;
}

MultiResult ParallelReachabilityExplorer::run_query(
    const MultiQuery& query) {
    if (options_.reuse != nullptr &&
        (!options_.checkpoint_path.empty() || options_.resume != nullptr)) {
        // A shared ReuseStore's records outlive any single pass's resume
        // point. Refuse loudly — a resume point that silently degraded
        // would be worse than none.
        throw std::runtime_error(
            "checkpoint: incompatible with a cross-pass ReuseStore");
    }
    // A store whose dimensions don't match this net falls back to a
    // scratch pass.
    ReuseStore* reuse = nullptr;
    if (options_.reuse && options_.reuse->attach(*compiled_)) {
        reuse = options_.reuse.get();
    }
    ParallelPass pass(net_, *compiled_, options_, query, threads_, reuse);
    try {
        MultiResult result = pass.run();
        result.reuse_fallback = options_.reuse != nullptr && reuse == nullptr;
        return result;
    } catch (const ExplorationAborted&) {
        throw;
    } catch (const std::exception& e) {
        // The pass died mid-exploration (goal predicate threw, checkpoint
        // write failed, resume point rejected): attach the interned
        // footprint so accounting survives the abort.
        throw ExplorationAborted(e.what(), pass.footprint());
    }
}

}  // namespace rap::petri
