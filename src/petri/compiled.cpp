#include "petri/compiled.hpp"

#include <algorithm>
#include <cstring>

#include "util/bitvec.hpp"

namespace rap::petri {

namespace {

constexpr std::size_t kWordBits = util::BitVec::kWordBits;

/// Collapses a sorted place list into per-word masks, appended to `out`.
template <typename TermT, typename Assign>
void pack_terms(const std::vector<PlaceId>& places, std::vector<TermT>& out,
                std::size_t first, Assign assign) {
    for (PlaceId p : places) {
        const std::uint32_t word =
            static_cast<std::uint32_t>(p.value / kWordBits);
        const std::uint64_t bit = std::uint64_t{1} << (p.value % kWordBits);
        if (out.size() > first && out.back().word == word) {
            assign(out.back(), bit);
        } else {
            TermT term{};
            term.word = word;
            assign(term, bit);
            out.push_back(term);
        }
    }
}

/// FNV-1a over a length-prefixed id list — the structure digest's
/// building block (length prefixes keep adjacent lists unambiguous).
void fold_places(std::uint64_t& h, const std::vector<PlaceId>& places) {
    constexpr std::uint64_t kPrime = 1099511628211ULL;
    h ^= places.size();
    h *= kPrime;
    for (PlaceId p : places) {
        h ^= p.value;
        h *= kPrime;
    }
}

}  // namespace

std::uint64_t CompiledNet::digest_structure(const Net& net) noexcept {
    std::uint64_t h = 14695981039346656037ULL;
    constexpr std::uint64_t kPrime = 1099511628211ULL;
    h ^= net.place_count();
    h *= kPrime;
    h ^= net.transition_count();
    h *= kPrime;
    for (std::uint32_t ti = 0;
         ti < static_cast<std::uint32_t>(net.transition_count()); ++ti) {
        const TransitionId t{ti};
        fold_places(h, net.preset(t));
        fold_places(h, net.postset(t));
        fold_places(h, net.readset(t));
    }
    return h;
}

CompiledNet::CompiledNet(const Net& net)
    : net_(&net),
      place_count_(net.place_count()),
      transition_count_(net.transition_count()),
      marking_words_(util::BitVec::words_for_bits(place_count_)),
      enabled_words_(util::BitVec::words_for_bits(transition_count_)),
      structure_digest_(digest_structure(net)) {
    require_off_.reserve(transition_count_ + 1);
    forbid_off_.reserve(transition_count_ + 1);
    effect_off_.reserve(transition_count_ + 1);

    // Place -> transitions whose enabledness depends on that place's
    // token (consume / read / produce-contact). Built densely first, then
    // flattened per transition into the affected-transition CSR.
    std::vector<std::vector<std::uint32_t>> dependents(place_count_);

    std::vector<PlaceId> require_places;
    std::vector<PlaceId> forbid_places;
    for (std::uint32_t ti = 0; ti < transition_count_; ++ti) {
        const TransitionId t{ti};
        const auto& pre = net.preset(t);
        const auto& post = net.postset(t);
        const auto& read = net.readset(t);

        require_off_.push_back(static_cast<std::uint32_t>(require_.size()));
        forbid_off_.push_back(static_cast<std::uint32_t>(forbid_.size()));
        effect_off_.push_back(static_cast<std::uint32_t>(effect_.size()));

        // require = pre ∪ read (both sorted; merge keeps word order).
        require_places.clear();
        std::set_union(pre.begin(), pre.end(), read.begin(), read.end(),
                       std::back_inserter(require_places));
        pack_terms(require_places, require_, require_off_.back(),
                   [](Term& term, std::uint64_t bit) { term.mask |= bit; });

        // forbid = post ∖ pre (contact-freeness).
        forbid_places.clear();
        std::set_difference(post.begin(), post.end(), pre.begin(),
                            pre.end(), std::back_inserter(forbid_places));
        pack_terms(forbid_places, forbid_, forbid_off_.back(),
                   [](Term& term, std::uint64_t bit) { term.mask |= bit; });

        // Firing effect, word-aligned across consume and produce masks.
        pack_terms(pre, effect_, effect_off_.back(),
                   [](Effect& e, std::uint64_t bit) { e.clear_mask |= bit; });
        for (PlaceId p : post) {
            const std::uint32_t word =
                static_cast<std::uint32_t>(p.value / kWordBits);
            const std::uint64_t bit = std::uint64_t{1}
                                      << (p.value % kWordBits);
            auto it = std::find_if(
                effect_.begin() + effect_off_.back(), effect_.end(),
                [word](const Effect& e) { return e.word == word; });
            if (it == effect_.end()) {
                effect_.push_back({word, 0, bit});
            } else {
                it->set_mask |= bit;
            }
        }

        for (PlaceId p : require_places) dependents[p.value].push_back(ti);
        for (PlaceId p : forbid_places) dependents[p.value].push_back(ti);
    }
    require_off_.push_back(static_cast<std::uint32_t>(require_.size()));
    forbid_off_.push_back(static_cast<std::uint32_t>(forbid_.size()));
    effect_off_.push_back(static_cast<std::uint32_t>(effect_.size()));

    // affected(t) = union of dependents over the places whose marking a
    // firing of t actually toggles: the symmetric difference of pre and
    // post (pre ∩ post places end up marked again).
    affected_off_.reserve(transition_count_ + 1);
    std::vector<PlaceId> toggled;
    std::vector<std::uint32_t> scratch;
    for (std::uint32_t ti = 0; ti < transition_count_; ++ti) {
        const TransitionId t{ti};
        const auto& pre = net.preset(t);
        const auto& post = net.postset(t);
        toggled.clear();
        std::set_symmetric_difference(pre.begin(), pre.end(), post.begin(),
                                      post.end(),
                                      std::back_inserter(toggled));
        scratch.clear();
        for (PlaceId p : toggled) {
            scratch.insert(scratch.end(), dependents[p.value].begin(),
                           dependents[p.value].end());
        }
        std::sort(scratch.begin(), scratch.end());
        scratch.erase(std::unique(scratch.begin(), scratch.end()),
                      scratch.end());
        affected_off_.push_back(static_cast<std::uint32_t>(affected_.size()));
        affected_.insert(affected_.end(), scratch.begin(), scratch.end());
    }
    affected_off_.push_back(static_cast<std::uint32_t>(affected_.size()));
}

bool CompiledNet::is_enabled(const std::uint64_t* marking,
                             TransitionId t) const noexcept {
    for (std::uint32_t i = require_off_[t.value];
         i < require_off_[t.value + 1]; ++i) {
        const Term& term = require_[i];
        if ((marking[term.word] & term.mask) != term.mask) return false;
    }
    for (std::uint32_t i = forbid_off_[t.value]; i < forbid_off_[t.value + 1];
         ++i) {
        const Term& term = forbid_[i];
        if ((marking[term.word] & term.mask) != 0) return false;
    }
    return true;
}

void CompiledNet::fire(std::uint64_t* marking,
                       TransitionId t) const noexcept {
    for (std::uint32_t i = effect_off_[t.value]; i < effect_off_[t.value + 1];
         ++i) {
        const Effect& e = effect_[i];
        marking[e.word] = (marking[e.word] & ~e.clear_mask) | e.set_mask;
    }
}

void CompiledNet::enabled_set(const std::uint64_t* marking,
                              std::uint64_t* out) const noexcept {
    std::memset(out, 0, enabled_words_ * sizeof(std::uint64_t));
    for (std::uint32_t ti = 0; ti < transition_count_; ++ti) {
        if (is_enabled(marking, TransitionId{ti})) {
            out[ti / kWordBits] |= std::uint64_t{1} << (ti % kWordBits);
        }
    }
}

void CompiledNet::update_enabled(const std::uint64_t* marking,
                                 TransitionId fired,
                                 std::uint64_t* enabled) const noexcept {
    for (std::uint32_t ti : affected(fired)) {
        const std::uint64_t bit = std::uint64_t{1} << (ti % kWordBits);
        if (is_enabled(marking, TransitionId{ti})) {
            enabled[ti / kWordBits] |= bit;
        } else {
            enabled[ti / kWordBits] &= ~bit;
        }
    }
}

}  // namespace rap::petri
