#include "petri/checkpoint.hpp"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>

#include "petri/compiled.hpp"
#include "util/strings.hpp"

namespace rap::petri {

namespace {

// "RAPCKPT1" as a little-endian word; a different framing revision bumps
// the trailing digit so stale files fail the magic check, not a parse.
constexpr std::uint64_t kMagic = 0x3154504B43504152ULL;
// Version 2 dropped the engine kind and the sequential cursor words (one
// engine, layer-boundary resume points); version-1 files are refused.
constexpr std::uint64_t kVersion = 2;

// Fixed header words before the variable sections (magic .. records
// offset, inclusive).
constexpr std::size_t kHeaderWords = 18;

[[noreturn]] void reject(const std::string& path, const char* what) {
    throw std::runtime_error("StoreCheckpoint: '" + path + "' " + what);
}

}  // namespace

void StoreCheckpoint::save(const std::string& path) const {
    const std::size_t stride = record_stride();
    if (records.size() != record_count * stride) {
        throw std::runtime_error(
            "StoreCheckpoint::save: records length does not match "
            "record_count * (marking_words + meta_words)");
    }

    std::vector<std::uint64_t> words;
    words.reserve(kHeaderWords + frontier.size() + goal_hits.size() +
                  deadlocks.size() + violations.size() * 2 +
                  records.size() + 1);
    words.push_back(kMagic);
    words.push_back(kVersion);
    words.push_back(structure_digest);
    words.push_back((std::uint64_t{marking_words} << 32) | meta_words);
    words.push_back(record_count);
    words.push_back(edges_explored);
    words.push_back(depth);
    words.push_back(frontier.size());
    words.push_back(goal_hits.size());
    words.push_back(deadlocks.size());
    words.push_back(violations.size());
    words.push_back(por.active ? 1 : 0);
    words.push_back(por.expansions);
    words.push_back(por.reduced_expansions);
    words.push_back(por.proviso_expansions);
    words.push_back(por.enabled_transitions);
    words.push_back(por.expanded_transitions);
    // Word offset of the records run from the start of the file: the
    // mmap hook — map the file, add this, and the arena payload is one
    // aligned contiguous span.
    words.push_back(kHeaderWords + frontier.size() + goal_hits.size() +
                    deadlocks.size() + violations.size() * 2);

    for (std::uint32_t id : frontier) words.push_back(id);
    for (std::uint32_t id : goal_hits) words.push_back(id);
    for (std::uint32_t id : deadlocks) words.push_back(id);
    for (const Violation& v : violations) {
        words.push_back((std::uint64_t{v.state} << 32) | v.depth);
        words.push_back((std::uint64_t{v.fired} << 32) | v.disabled);
    }
    words.insert(words.end(), records.begin(), records.end());
    words.push_back(hash_marking_words(words.data(), words.size()));

    const std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out) reject(tmp, "cannot be opened for writing");
        out.write(reinterpret_cast<const char*>(words.data()),
                  static_cast<std::streamsize>(words.size() *
                                               sizeof(std::uint64_t)));
        out.flush();
        if (!out) reject(tmp, "write failed");
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        reject(path, "rename from .tmp failed");
    }
}

StoreCheckpoint StoreCheckpoint::load(const std::string& path) {
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    if (!in) reject(path, "cannot be opened");
    const auto bytes = static_cast<std::size_t>(in.tellg());
    if (bytes % sizeof(std::uint64_t) != 0 ||
        bytes < (kHeaderWords + 1) * sizeof(std::uint64_t)) {
        reject(path, "is truncated (not a whole checkpoint header)");
    }
    std::vector<std::uint64_t> words(bytes / sizeof(std::uint64_t));
    in.seekg(0);
    in.read(reinterpret_cast<char*>(words.data()),
            static_cast<std::streamsize>(bytes));
    if (!in) reject(path, "read failed");

    // Checksum first: any flipped bit anywhere (header included) is
    // reported as corruption, not as whatever the bit happens to mean.
    const std::uint64_t sum =
        hash_marking_words(words.data(), words.size() - 1);
    if (sum != words.back()) reject(path, "failed its checksum");
    if (words[0] != kMagic) reject(path, "is not a RAP checkpoint");
    if (words[1] != kVersion) {
        reject(path, "uses an unsupported checkpoint version");
    }

    StoreCheckpoint c;
    c.structure_digest = words[2];
    c.marking_words = static_cast<std::uint32_t>(words[3] >> 32);
    c.meta_words = static_cast<std::uint32_t>(words[3]);
    c.record_count = words[4];
    c.edges_explored = words[5];
    c.depth = words[6];
    const std::uint64_t frontier_n = words[7];
    const std::uint64_t goals_n = words[8];
    const std::uint64_t deadlocks_n = words[9];
    const std::uint64_t violations_n = words[10];
    c.por.active = words[11] != 0;
    c.por.expansions = words[12];
    c.por.reduced_expansions = words[13];
    c.por.proviso_expansions = words[14];
    c.por.enabled_transitions = words[15];
    c.por.expanded_transitions = words[16];
    const std::uint64_t records_off = words[17];

    // No section can outgrow the payload; bounding each count first
    // keeps the sums below from wrapping around 2^64.
    const std::uint64_t payload = words.size() - 1;  // minus checksum
    for (const std::uint64_t n :
         {frontier_n, goals_n, deadlocks_n, violations_n}) {
        if (n > payload) reject(path, "has inconsistent section lengths");
    }
    if (c.record_stride() != 0 &&
        c.record_count > payload / c.record_stride()) {
        reject(path, "has inconsistent section lengths");
    }
    const std::uint64_t expected_off = kHeaderWords + frontier_n +
                                       goals_n + deadlocks_n +
                                       violations_n * 2;
    const std::uint64_t record_words =
        c.record_count * c.record_stride();
    if (records_off != expected_off ||
        payload != expected_off + record_words) {
        reject(path, "has inconsistent section lengths");
    }

    std::size_t at = kHeaderWords;
    auto take_ids = [&](std::uint64_t n) {
        std::vector<std::uint32_t> ids(n);
        for (std::uint64_t i = 0; i < n; ++i) {
            ids[i] = static_cast<std::uint32_t>(words[at++]);
        }
        return ids;
    };
    c.frontier = take_ids(frontier_n);
    c.goal_hits = take_ids(goals_n);
    c.deadlocks = take_ids(deadlocks_n);
    c.violations.resize(violations_n);
    for (Violation& v : c.violations) {
        v.state = static_cast<std::uint32_t>(words[at] >> 32);
        v.depth = static_cast<std::uint32_t>(words[at++]);
        v.fired = static_cast<std::uint32_t>(words[at] >> 32);
        v.disabled = static_cast<std::uint32_t>(words[at++]);
    }
    c.records.assign(words.begin() + static_cast<std::ptrdiff_t>(at),
                     words.end() - 1);
    return c;
}

}  // namespace rap::petri
