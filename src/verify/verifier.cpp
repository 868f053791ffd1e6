#include "verify/verifier.hpp"

#include "util/strings.hpp"

namespace rap::verify {

std::string_view to_string(Property property) {
    switch (property) {
        case Property::Deadlock: return "deadlock";
        case Property::ControlConflict: return "control-conflict";
        case Property::Persistence: return "persistence";
        case Property::Custom: return "custom";
    }
    return "?";
}

std::string Finding::to_string() const {
    std::string out = std::string(rap::verify::to_string(property)) + ": ";
    if (truncated) out += "INCONCLUSIVE (state cap hit); ";
    out += violated ? "VIOLATED" : "ok";
    out += util::format(" [%zu states]", states_explored);
    if (!detail.empty()) out += " — " + detail;
    if (!trace.empty()) out += "\n  trace: " + util::join(trace, " -> ");
    if (!dfs_trace.empty()) {
        out += "\n  events: " + util::join(dfs_trace, "; ");
    }
    return out;
}

std::string Report::to_string() const {
    // Findings are already in the canonical order (Deadlock,
    // ControlConflict, Persistence, customs in registration order); the
    // rendering preserves it so reports diff cleanly across runs.
    std::vector<std::string> lines;
    lines.reserve(findings.size());
    for (const auto& f : findings) lines.push_back(f.to_string());
    return util::join(lines, "\n");
}

Verifier::Verifier(const dfs::Graph& graph, VerifyOptions options)
    : graph_(&graph), options_(options), model_(compile_model(graph)) {}

Verifier::Verifier(const dfs::Graph& graph,
                   std::shared_ptr<const CompiledModel> model,
                   VerifyOptions options)
    : graph_(&graph), options_(options), model_(std::move(model)) {}

petri::MultiResult Verifier::run_exploration(const petri::MultiQuery& query,
                                             bool stop_at_first_match) const {
    petri::ReachabilityOptions ropts;
    ropts.max_states = options_.max_states;
    ropts.stop_at_first_match = stop_at_first_match;
    ropts.threads = options_.threads;
    ropts.por = options_.por;
    ropts.stop = options_.stop;
    ropts.reuse = options_.reuse;
    ropts.checkpoint_path = options_.checkpoint_path;
    ropts.checkpoint_every = options_.checkpoint_every;
    ropts.resume = options_.resume;
    // The explorer shards each BFS layer over the shared compiled
    // artifact; its answers do not depend on the thread count.
    petri::ParallelReachabilityExplorer explorer(model_->compiled(), ropts);
    ++explorations_;
    try {
        auto result = explorer.run_query(query);
        last_memory_ = result.memory;
        last_por_ = result.por;
        if (result.reuse_fallback) ++reuse_fallbacks_;
        return result;
    } catch (const petri::ExplorationAborted& e) {
        // The pass died mid-exploration but its interned footprint is
        // real: cache it so memory_stats() (and flow::Sweep's
        // peak-resident aggregation) still sees the partial pass.
        last_memory_ = e.memory;
        throw;
    }
}

void Verifier::fill_traces(Finding& finding,
                           const petri::Trace& trace) const {
    const dfs::Translation& tr = model_->translation();
    for (const auto t : trace.firings) {
        finding.trace.push_back(tr.net.transition_name(t));
        finding.dfs_trace.push_back(tr.describe_transition(*graph_, t));
        const auto& ev = tr.event(t);
        finding.event_trace.push_back({ev.node, ev.kind});
    }
}

Finding Verifier::from_reachability(Property property,
                                    const petri::ReachabilityResult& result,
                                    std::string detail_on_violation) const {
    Finding finding;
    finding.property = property;
    finding.states_explored = result.states_explored;
    finding.truncated = result.truncated;
    finding.violated = result.found();
    if (finding.violated) {
        finding.detail = std::move(detail_on_violation);
        if (result.witness) {
            finding.detail += " at " + model_->translation().net
                                           .describe_marking(*result.witness);
        }
        if (result.witness_trace) {
            fill_traces(finding, *result.witness_trace);
        }
    }
    return finding;
}

Finding Verifier::persistence_finding(
    const petri::MultiResult& multi) const {
    Finding finding;
    finding.property = Property::Persistence;
    finding.states_explored = multi.states_explored;
    finding.truncated = multi.truncated;
    finding.violated = !multi.persistence_violations.empty();
    if (finding.violated) {
        const dfs::Translation& tr = model_->translation();
        const auto& v = multi.persistence_violations.front();
        finding.detail = util::format(
            "%s — i.e. \"%s\" withdraws the enabling of \"%s\"",
            v.to_string(tr.net).c_str(),
            tr.describe_transition(*graph_, v.fired).c_str(),
            tr.describe_transition(*graph_, v.disabled).c_str());
        fill_traces(finding, v.trace_to_marking);
    }
    return finding;
}

std::optional<petri::Predicate> Verifier::control_conflict_predicate()
    const {
    // The Reach predicate: OR over all nodes with >=2 controls of "every
    // control marked, and both polarities present".
    const dfs::Graph& g = *graph_;
    struct Watched {
        dfs::NodeId node;
        std::vector<dfs::NodeId> controls;
        std::vector<bool> inverted;
    };
    std::vector<Watched> watched;
    for (dfs::NodeId n : g.nodes()) {
        const auto& controls = g.control_preset(n);
        if (controls.size() >= 2) {
            watched.push_back({n, controls, g.control_preset_inversion(n)});
        }
    }
    if (watched.empty()) return std::nullopt;

    const auto& places = model_->translation().places;
    // The predicate only reads the m1/mt1 slots of the watched controls;
    // declaring that support keeps partial-order reduction admissible
    // (an unknown-support goal would force full exploration).
    std::vector<petri::PlaceId> support;
    for (const auto& w : watched) {
        for (const dfs::NodeId c : w.controls) {
            support.push_back(places[c.value].m1);
            support.push_back(places[c.value].mt1);
        }
    }
    auto eval = [watched, &places](const petri::Net&,
                                   const petri::Marking& m) {
        for (const auto& w : watched) {
            bool all_marked = true;
            bool saw_true = false;
            bool saw_false = false;
            for (std::size_t i = 0; i < w.controls.size(); ++i) {
                const auto& slots = places[w.controls[i].value];
                if (!m.get(slots.m1.value)) {
                    all_marked = false;
                    break;
                }
                // Effective polarity after any inverting arc.
                const bool is_true = m.get(slots.mt1.value) != w.inverted[i];
                (is_true ? saw_true : saw_false) = true;
            }
            if (all_marked && saw_true && saw_false) return true;
        }
        return false;
    };
    return petri::Predicate::custom("control-conflict", std::move(eval),
                                    std::move(support));
}

bool Verifier::persistence_exempt(const petri::Net& net,
                                  petri::TransitionId a,
                                  petri::TransitionId b) {
    // Intended choices: the Mt_x+ / Mf_x+ pair of the same node, i.e. the
    // non-deterministic outcome of a data-dependent predicate (Fig. 4).
    const std::string& na = net.transition_name(a);
    const std::string& nb = net.transition_name(b);
    const bool a_plus =
        (util::starts_with(na, "Mt_") || util::starts_with(na, "Mf_")) &&
        na.back() == '+';
    const bool b_plus =
        (util::starts_with(nb, "Mt_") || util::starts_with(nb, "Mf_")) &&
        nb.back() == '+';
    if (!a_plus || !b_plus) return false;
    return na.substr(3) == nb.substr(3);
}

namespace {

Finding trivially_safe_conflict_finding(std::size_t states_explored,
                                        bool truncated) {
    Finding finding;
    finding.property = Property::ControlConflict;
    finding.detail = "no node has multiple controls; trivially safe";
    finding.states_explored = states_explored;
    finding.truncated = truncated;
    return finding;
}

}  // namespace

Report Verifier::run_spec(const Spec& spec, bool stop_at_first) const {
    // One exploration answers every requested property: deadlock,
    // control-conflict and any custom predicates as multi-goal
    // reachability, persistence along the explored edges. With more than
    // one open question the pass runs to exhaustion — early exit on one
    // property would leave the others unanswered — but keeps only the
    // first persistence counterexample.
    const auto deadlock_goal = petri::Predicate::deadlock();
    std::optional<petri::Predicate> conflict;
    const bool conflict_possible =
        spec.wants_control_conflict() &&
        (conflict = control_conflict_predicate()).has_value();

    petri::MultiQuery query;
    if (spec.wants_deadlock()) query.goals.push_back(&deadlock_goal);
    if (conflict_possible) query.goals.push_back(&*conflict);
    for (const auto& custom : spec.customs()) {
        query.goals.push_back(&custom.predicate);
    }
    if (spec.wants_persistence()) {
        query.check_persistence = true;
        query.persistence_exempt = &Verifier::persistence_exempt;
        if (stop_at_first) {
            query.persistence_stop_at_first = true;
        } else {
            query.persistence_max_violations = 1;
        }
    }

    petri::MultiResult multi;
    if (!query.goals.empty() || query.check_persistence) {
        multi = run_exploration(query, stop_at_first);
    }
    // else: the only requested property is a trivially safe
    // control-conflict — nothing to explore.

    // Findings in the canonical deterministic order.
    Report report;
    std::size_t goal = 0;
    if (spec.wants_deadlock()) {
        report.findings.push_back(from_reachability(
            Property::Deadlock, multi.goals[goal++], "deadlock reachable"));
    }
    if (spec.wants_control_conflict()) {
        if (conflict_possible) {
            report.findings.push_back(from_reachability(
                Property::ControlConflict, multi.goals[goal++],
                "mixed True/False controls disable a node"));
        } else {
            report.findings.push_back(trivially_safe_conflict_finding(
                multi.states_explored, multi.truncated));
        }
    }
    if (spec.wants_persistence()) {
        report.findings.push_back(persistence_finding(multi));
    }
    for (const auto& custom : spec.customs()) {
        auto finding = from_reachability(
            Property::Custom, multi.goals[goal++], "predicate reachable");
        if (finding.detail.empty()) {
            finding.detail = custom.description + ": unreachable";
        } else {
            finding.detail = custom.description + ": " + finding.detail;
        }
        report.findings.push_back(std::move(finding));
    }
    return report;
}

Report Verifier::verify(const Spec& spec) const {
    // A single open question may stop at its first answer; a combined
    // pass must exhaust the state space so every property gets an exact
    // answer.
    const std::size_t questions = (spec.wants_deadlock() ? 1u : 0u) +
                                  (spec.wants_control_conflict() ? 1u : 0u) +
                                  (spec.wants_persistence() ? 1u : 0u) +
                                  spec.customs().size();
    return run_spec(spec, /*stop_at_first=*/questions <= 1);
}

Finding Verifier::check_deadlock() const {
    return std::move(verify(Spec{}.deadlock()).findings.front());
}

Finding Verifier::check_control_conflict() const {
    return std::move(verify(Spec{}.control_conflict()).findings.front());
}

Finding Verifier::check_persistence() const {
    return std::move(verify(Spec{}.persistence()).findings.front());
}

Finding Verifier::check_custom(const petri::Predicate& predicate,
                               std::string description) const {
    return std::move(
        verify(Spec{}.custom(std::move(description), predicate))
            .findings.front());
}

Report Verifier::verify_all() const {
    return run_spec(Spec::standard(), /*stop_at_first=*/false);
}

}  // namespace rap::verify
