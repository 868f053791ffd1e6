#pragma once

#include <cstddef>
#include <memory>
#include <string>

#include "dfs/model.hpp"
#include "dfs/translate.hpp"
#include "petri/compiled.hpp"

namespace rap::verify {

/// The immutable compiled verification artifact of one DFS model
/// snapshot: the Fig. 3 PN translation plus its CompiledNet. Built once
/// and shared (by shared_ptr) between every Verifier and flow::Design
/// session that asks for the same model — the expensive part of
/// constructing a verifier is paid once per model *content*, not once
/// per construction.
///
/// Never copied or moved: the CompiledNet holds a pointer into the
/// translation's net, so instances live on the heap behind shared_ptr.
class CompiledModel {
public:
    explicit CompiledModel(const dfs::Graph& graph);

    CompiledModel(const CompiledModel&) = delete;
    CompiledModel& operator=(const CompiledModel&) = delete;

    const dfs::Translation& translation() const noexcept {
        return translation_;
    }
    const petri::CompiledNet& compiled() const noexcept { return compiled_; }
    const petri::Net& net() const noexcept { return translation_.net; }

    /// Deterministic size estimate (from the net's place/transition
    /// counts) used by the ArtifactCache's byte-capacity LRU accounting.
    std::size_t approx_bytes() const noexcept { return approx_bytes_; }

private:
    dfs::Translation translation_;
    petri::CompiledNet compiled_;
    std::size_t approx_bytes_ = 0;
};

/// Exact content fingerprint of a DFS model: every field the Fig. 3
/// translation reads, so two graphs with equal fingerprints translate to
/// identical nets. The ArtifactCache key, and the dedup-before-compile
/// content key flow::Sweep groups grid configurations by (full content,
/// not a hash — no collision risk; names are length-prefixed so
/// separator characters cannot forge another model's key).
std::string model_fingerprint(const dfs::Graph& graph);

/// Returns the compiled artifact for `graph`, reusing a cached one when
/// an identical model (same nodes, edges, inversions and initial
/// markings) was compiled before. Thread-safe: rides the process-wide
/// verify::ArtifactCache (byte-capacity LRU with build coalescing —
/// concurrent callers racing on the same content share ONE build). See
/// verify/cache.hpp for pinning and introspection.
std::shared_ptr<const CompiledModel> compile_model(const dfs::Graph& graph);

/// Total CompiledModel constructions in this process — the artifact
/// build counter tests use to assert that repeated Verifier
/// constructions (and flow::Design re-verifications, and whole
/// flow::Sweep grids) share one compile per distinct model content.
std::size_t artifact_builds() noexcept;

}  // namespace rap::verify
