#include "verify/artifacts.hpp"

#include <atomic>

#include "util/strings.hpp"
#include "verify/cache.hpp"

namespace rap::verify {

namespace {

std::atomic<std::size_t> g_builds{0};

}  // namespace

std::string model_fingerprint(const dfs::Graph& graph) {
    std::string key =
        util::format("%zu:", graph.name().size()) + graph.name();
    key += '\x1f';
    for (const dfs::NodeId n : graph.nodes()) {
        const auto& init = graph.initial(n);
        const std::string& name = graph.node_name(n);
        key += util::format("%zu:", name.size()) + name;
        key += util::format(
            ":%d:%d:%d;", static_cast<int>(graph.kind(n)),
            init.marked ? 1 : 0, static_cast<int>(init.token));
    }
    key += '\x1f';
    for (const dfs::NodeId n : graph.nodes()) {
        for (const dfs::NodeId m : graph.postset(n)) {
            key += util::format("%u>%u:%d;", n.value, m.value,
                                graph.is_inverted(n, m) ? 1 : 0);
        }
    }
    return key;
}

CompiledModel::CompiledModel(const dfs::Graph& graph)
    : translation_(dfs::to_petri(graph)), compiled_(translation_.net) {
    // Rough per-place / per-transition footprint of the translation +
    // CSR-compiled net; deterministic and monotone in model size, which
    // is all the LRU byte accounting needs.
    approx_bytes_ = 4096 + translation_.net.place_count() * 96 +
                    translation_.net.transition_count() * 256;
    g_builds.fetch_add(1, std::memory_order_relaxed);
}

std::shared_ptr<const CompiledModel> compile_model(const dfs::Graph& graph) {
    return ArtifactCache::process_cache().get(graph);
}

std::size_t artifact_builds() noexcept {
    return g_builds.load(std::memory_order_relaxed);
}

}  // namespace rap::verify
