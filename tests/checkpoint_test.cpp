// Checkpoint/resume contract tests: a killed exploration resumed from
// its last on-disk StoreCheckpoint must reproduce the uninterrupted
// pass's (states, edges, verdicts, witnesses) exactly — at any thread
// count on either side — while corrupted files, old format versions,
// foreign structures and reconfigured initial markings are all refused
// loudly instead of resuming as a silently wrong exploration.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "flow/design.hpp"
#include "ope/dfs_models.hpp"
#include "petri/checkpoint.hpp"
#include "petri/compiled.hpp"
#include "petri/parallel.hpp"
#include "petri/reachability.hpp"
#include "petri/reuse.hpp"
#include "petri_fixtures.hpp"

namespace rap::petri {
namespace {

using namespace testfx;

std::string temp_path(const std::string& name) {
    return testing::TempDir() + name;
}

/// Runs `query` with checkpointing on and a stop hook that kills the
/// pass after `polls` cooperative-stop polls, leaving the last periodic
/// checkpoint on disk. Returns the partial (truncated) result.
MultiResult killed_run(const CompiledNet& compiled, const MultiQuery& query,
                       const std::string& path, std::size_t threads,
                       int polls, std::size_t every) {
    ReachabilityOptions options;
    options.stop_at_first_match = false;
    options.checkpoint_path = path;
    options.checkpoint_every = every;
    auto count = std::make_shared<std::atomic<int>>(0);
    options.stop = [count, polls] { return ++*count > polls; };
    options.threads = threads;
    ParallelReachabilityExplorer explorer(compiled, options);
    return explorer.run_query(query);
}

TEST(Checkpoint, SequentialKillAndResumeMatchesUninterrupted) {
    // Killed on one worker, resumed on one and on four: a checkpoint is
    // a layer boundary, which means the same thing at every thread count.
    const Fixture fixture = gap_fixture();  // deadlocks -> witness paths
    const CompiledNet compiled(fixture.net);
    const QueryBundle bundle(fixture.net);

    ReachabilityOptions base;
    base.stop_at_first_match = false;
    base.threads = 1;
    ParallelReachabilityExplorer uninterrupted(compiled, base);
    const auto reference = uninterrupted.run_query(bundle.query);
    ASSERT_FALSE(reference.truncated);

    // The gap model is 1904 states / 7808 edges; one worker polls the
    // stop hook once per layer and every 256 edges, so 20 polls kill the
    // pass about 40% in — after the 256-state save cadence has fired.
    const std::string path = temp_path("ckpt_seq_kill.ckpt");
    std::remove(path.c_str());
    const auto partial = killed_run(compiled, bundle.query, path, 1, 20, 256);
    ASSERT_TRUE(partial.truncated) << "kill did not interrupt the pass";
    ASSERT_LT(partial.states_explored, reference.states_explored)
        << "kill landed after exhaustion; nothing left to resume";

    const auto ckpt = std::make_shared<const StoreCheckpoint>(
        StoreCheckpoint::load(path));
    ASSERT_GT(ckpt->record_count, 0u);
    ASSERT_LT(ckpt->record_count, reference.states_explored);

    // Dense discovery-order ids make the checkpoint independent of the
    // thread count that wrote it.
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        ReachabilityOptions resume = base;
        resume.resume = ckpt;
        resume.threads = threads;
        ParallelReachabilityExplorer resumed(compiled, resume);
        const auto result = resumed.run_query(bundle.query);
        expect_identical(fixture.net, reference, result,
                         "resume @" + std::to_string(threads) + "t");
    }
}

TEST(Checkpoint, ParallelKillAndResumeMatchesUninterrupted) {
    // Large enough (~191k states) that 60 cooperative-stop polls always
    // land mid-pass, whatever the 4 workers' schedule looks like.
    const Fixture fixture = ope_fixture(3, 3);
    const CompiledNet compiled(fixture.net);
    const QueryBundle bundle(fixture.net);

    ReachabilityOptions base;
    base.stop_at_first_match = false;
    base.threads = 4;
    ParallelReachabilityExplorer uninterrupted(compiled, base);
    const auto reference = uninterrupted.run_query(bundle.query);
    ASSERT_FALSE(reference.truncated);

    const std::string path = temp_path("ckpt_par_kill.ckpt");
    std::remove(path.c_str());
    const auto partial =
        killed_run(compiled, bundle.query, path, 4, 60, 1);
    ASSERT_TRUE(partial.truncated) << "kill did not interrupt the pass";
    ASSERT_LT(partial.states_explored, reference.states_explored)
        << "kill landed after exhaustion; nothing left to resume";

    const auto ckpt = std::make_shared<const StoreCheckpoint>(
        StoreCheckpoint::load(path));
    ASSERT_GT(ckpt->record_count, 0u);

    ReachabilityOptions resume = base;
    resume.resume = ckpt;
    ParallelReachabilityExplorer resumed(compiled, resume);
    const auto result = resumed.run_query(bundle.query);
    expect_identical(fixture.net, reference, result, "parallel resume");
}

TEST(Checkpoint, ResumedPassKeepsCheckpointingToTheNextFile) {
    // The nightly soak's shape: resume from one night's checkpoint while
    // writing the next night's. The resumed pass must both reproduce the
    // uninterrupted result and leave a fresh loadable checkpoint behind.
    const Fixture fixture = ope_fixture(3, 3);
    const CompiledNet compiled(fixture.net);
    const QueryBundle bundle(fixture.net);

    ReachabilityOptions base;
    base.stop_at_first_match = false;
    ParallelReachabilityExplorer uninterrupted(compiled, base);
    const auto reference = uninterrupted.run_query(bundle.query);

    const std::string first = temp_path("ckpt_chain_first.ckpt");
    const std::string second = temp_path("ckpt_chain_second.ckpt");
    std::remove(first.c_str());
    std::remove(second.c_str());
    const auto partial =
        killed_run(compiled, bundle.query, first, 1, 80, 1024);
    ASSERT_TRUE(partial.truncated);

    ReachabilityOptions resume = base;
    resume.resume = std::make_shared<const StoreCheckpoint>(
        StoreCheckpoint::load(first));
    resume.checkpoint_path = second;
    resume.checkpoint_every = 4096;
    ParallelReachabilityExplorer resumed(compiled, resume);
    const auto result = resumed.run_query(bundle.query);
    expect_identical(fixture.net, reference, result, "chained resume");

    const auto next = StoreCheckpoint::load(second);
    EXPECT_GT(next.record_count, resume.resume->record_count);
}

TEST(Checkpoint, CorruptedOrTruncatedFileRejectedLoudly) {
    const Fixture fixture = ring_fixture(6);  // 8 states, tiny + fast
    const CompiledNet compiled(fixture.net);
    const QueryBundle bundle(fixture.net);

    const std::string path = temp_path("ckpt_corrupt.ckpt");
    std::remove(path.c_str());
    ReachabilityOptions options;
    options.stop_at_first_match = false;
    options.checkpoint_path = path;
    options.checkpoint_every = 4;
    ParallelReachabilityExplorer explorer(compiled, options);
    explorer.run_query(bundle.query);
    ASSERT_NO_THROW(StoreCheckpoint::load(path)) << "pristine file";

    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good());
    std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    in.close();
    ASSERT_GT(bytes.size(), 64u);

    const std::string truncated = temp_path("ckpt_truncated.ckpt");
    {
        std::ofstream out(truncated, std::ios::binary);
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size() / 2));
    }
    EXPECT_THROW(StoreCheckpoint::load(truncated), std::runtime_error);

    const std::string flipped = temp_path("ckpt_flipped.ckpt");
    {
        std::vector<char> bad = bytes;
        bad[bad.size() / 2] ^= 0x40;  // payload bit flip -> checksum
        std::ofstream out(flipped, std::ios::binary);
        out.write(bad.data(), static_cast<std::streamsize>(bad.size()));
    }
    EXPECT_THROW(StoreCheckpoint::load(flipped), std::runtime_error);

    const std::string garbage = temp_path("ckpt_garbage.ckpt");
    {
        std::ofstream out(garbage, std::ios::binary);
        out << "this is not a checkpoint";
    }
    EXPECT_THROW(StoreCheckpoint::load(garbage), std::runtime_error);

    EXPECT_THROW(StoreCheckpoint::load(temp_path("ckpt_missing.ckpt")),
                 std::runtime_error);
}

TEST(Checkpoint, StructuralOrMarkingChangeRefusedOnResume) {
    const std::string path = temp_path("ckpt_structure.ckpt");
    std::remove(path.c_str());
    const Fixture source = ope_fixture(3, 3);
    const CompiledNet compiled(source.net);
    const QueryBundle bundle(source.net);
    killed_run(compiled, bundle.query, path, 1, 30, 512);
    const auto ckpt = std::make_shared<const StoreCheckpoint>(
        StoreCheckpoint::load(path));

    // Different structure: the digest mismatch must refuse the resume.
    const Fixture other = ring_fixture(4);
    const CompiledNet other_compiled(other.net);
    const QueryBundle other_bundle(other.net);
    ReachabilityOptions options;
    options.stop_at_first_match = false;
    options.resume = ckpt;
    ParallelReachabilityExplorer foreign(other_compiled, options);
    EXPECT_THROW(foreign.run_query(other_bundle.query),
                 std::runtime_error);

    // Same structure, reconfigured initial marking (the gap model flips
    // one ring's token): record 0 no longer matches, refused separately.
    const Fixture gap = gap_fixture();
    const CompiledNet gap_compiled(gap.net);
    if (gap_compiled.structure_digest() == compiled.structure_digest()) {
        const QueryBundle gap_bundle(gap.net);
        ParallelReachabilityExplorer reconfigured(gap_compiled, options);
        EXPECT_THROW(reconfigured.run_query(gap_bundle.query),
                     std::runtime_error);
    }
}

TEST(Checkpoint, OldVersionRefused) {
    // Version-1 files carried an engine kind and a sequential cursor;
    // the current format has neither, so an old file must be refused by
    // its version word — not misparsed — even with a valid checksum.
    const Fixture fixture = ring_fixture(6);
    const CompiledNet compiled(fixture.net);
    const QueryBundle bundle(fixture.net);
    const std::string path = temp_path("ckpt_version.ckpt");
    std::remove(path.c_str());
    killed_run(compiled, bundle.query, path, 1, 1'000'000, 1);
    ASSERT_NO_THROW(StoreCheckpoint::load(path)) << "current version";

    std::vector<std::uint64_t> words;
    {
        std::ifstream in(path, std::ios::binary | std::ios::ate);
        ASSERT_TRUE(in.good());
        words.resize(static_cast<std::size_t>(in.tellg()) /
                     sizeof(std::uint64_t));
        in.seekg(0);
        in.read(reinterpret_cast<char*>(words.data()),
                static_cast<std::streamsize>(words.size() *
                                             sizeof(std::uint64_t)));
    }
    ASSERT_GT(words.size(), 2u);
    words[1] = 1;  // the version word
    words.back() = hash_marking_words(words.data(), words.size() - 1);
    const std::string old = temp_path("ckpt_version_1.ckpt");
    {
        std::ofstream out(old, std::ios::binary);
        out.write(reinterpret_cast<const char*>(words.data()),
                  static_cast<std::streamsize>(words.size() *
                                               sizeof(std::uint64_t)));
    }
    try {
        StoreCheckpoint::load(old);
        FAIL() << "a version-1 checkpoint loaded";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("version"), std::string::npos)
            << e.what();
    }
}

/// Writes a valid checkpoint of the 8-state ring, hands it to `tamper`,
/// saves it again (a fresh, valid checksum) and expects the resume to be
/// refused with std::runtime_error instead of dereferencing a bad id.
template <typename Tamper>
void expect_tampered_resume_refused(const std::string& name, Tamper tamper) {
    const Fixture fixture = ring_fixture(6);
    const CompiledNet compiled(fixture.net);
    const QueryBundle bundle(fixture.net);
    const std::string path = temp_path(name + ".ckpt");
    std::remove(path.c_str());
    killed_run(compiled, bundle.query, path, 1, 1'000'000, 1);
    StoreCheckpoint ckpt = StoreCheckpoint::load(path);
    tamper(ckpt);
    ckpt.save(path);

    ReachabilityOptions options;
    options.stop_at_first_match = false;
    options.resume = std::make_shared<const StoreCheckpoint>(
        StoreCheckpoint::load(path));
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        options.threads = threads;
        ParallelReachabilityExplorer explorer(compiled, options);
        EXPECT_THROW(explorer.run_query(bundle.query), std::runtime_error)
            << threads;
    }
}

TEST(Checkpoint, GoalHitBeyondRecordsRefusedOnResume) {
    expect_tampered_resume_refused("ckpt_bad_goal", [](StoreCheckpoint& c) {
        ASSERT_FALSE(c.goal_hits.empty());
        c.goal_hits[0] = static_cast<std::uint32_t>(c.record_count);
    });
}

TEST(Checkpoint, DeadlockBeyondRecordsRefusedOnResume) {
    expect_tampered_resume_refused("ckpt_bad_deadlock",
                                   [](StoreCheckpoint& c) {
                                       c.deadlocks = {50'000'000};
                                   });
}

TEST(Checkpoint, ViolationStateBeyondRecordsRefusedOnResume) {
    expect_tampered_resume_refused("ckpt_bad_violation_state",
                                   [](StoreCheckpoint& c) {
                                       c.violations = {{50'000'000, 1, 0, 0}};
                                   });
}

TEST(Checkpoint, ViolationTransitionBeyondNetRefusedOnResume) {
    expect_tampered_resume_refused("ckpt_bad_violation_fired",
                                   [](StoreCheckpoint& c) {
                                       c.violations = {{0, 0, 50'000'000, 0}};
                                   });
    expect_tampered_resume_refused("ckpt_bad_violation_disabled",
                                   [](StoreCheckpoint& c) {
                                       c.violations = {{0, 0, 0, 50'000'000}};
                                   });
}

TEST(Checkpoint, WrappingSectionCountsRejectedByLoad) {
    // Two section counts that sum to 2^64 make the section lengths add
    // up to an empty file; a loader that sums before bounding each count
    // then reads a million frontier ids past the buffer.
    const Fixture fixture = ring_fixture(6);
    const CompiledNet compiled(fixture.net);
    const QueryBundle bundle(fixture.net);
    const std::string path = temp_path("ckpt_wrap_source.ckpt");
    std::remove(path.c_str());
    killed_run(compiled, bundle.query, path, 1, 1'000'000, 1);
    std::uint64_t magic_version[2] = {0, 0};
    {
        std::ifstream in(path, std::ios::binary);
        ASSERT_TRUE(in.good());
        in.read(reinterpret_cast<char*>(magic_version),
                sizeof(magic_version));
    }

    std::vector<std::uint64_t> words(19, 0);  // 18 header words + checksum
    words[0] = magic_version[0];
    words[1] = magic_version[1];
    words[7] = 1'000'000;                    // frontier count
    words[8] = std::uint64_t{0} - words[7];  // goal count
    words[17] = 18;                          // records offset
    words.back() = hash_marking_words(words.data(), words.size() - 1);
    const std::string crafted = temp_path("ckpt_wrap.ckpt");
    {
        std::ofstream out(crafted, std::ios::binary);
        out.write(reinterpret_cast<const char*>(words.data()),
                  static_cast<std::streamsize>(words.size() *
                                               sizeof(std::uint64_t)));
    }
    EXPECT_THROW(StoreCheckpoint::load(crafted), std::runtime_error);
}

TEST(Checkpoint, DesignCadenceWritesAtEveryThreadCount) {
    // One Design::set_checkpoint cadence counts expanded states at every
    // thread count: 4096 on the ~191k-state 3-stage OPE writes resume
    // points at 1 thread and at 4 alike.
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        const std::string path = temp_path(
            "ckpt_design_" + std::to_string(threads) + "t.ckpt");
        std::remove(path.c_str());
        flow::DesignOptions options;
        options.verify.threads = threads;
        flow::Design design(ope::build_reconfigurable_ope_dfs(3, 3), options);
        design.set_checkpoint(path, 4096);
        ASSERT_TRUE(design.verify().clean()) << threads;
        const auto ckpt = StoreCheckpoint::load(path);
        EXPECT_GT(ckpt.record_count, 4096u) << threads;
        EXPECT_FALSE(ckpt.frontier.empty()) << threads;
    }
}

TEST(Checkpoint, ReuseStoreAndCheckpointingRefusedTogether) {
    // A cross-pass ReuseStore retains rows the checkpoint cannot carry;
    // the engine must refuse the combination up front, at every thread
    // count, rather than write checkpoints that cannot faithfully resume.
    const Fixture fixture = ring_fixture(3);
    const CompiledNet compiled(fixture.net);
    const QueryBundle bundle(fixture.net);

    ReachabilityOptions options;
    options.stop_at_first_match = false;
    options.reuse = std::make_shared<ReuseStore>();
    options.checkpoint_path = temp_path("ckpt_reuse.ckpt");
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        options.threads = threads;
        ParallelReachabilityExplorer explorer(compiled, options);
        EXPECT_THROW(explorer.run_query(bundle.query), std::runtime_error)
            << threads;
    }
}

}  // namespace
}  // namespace rap::petri
