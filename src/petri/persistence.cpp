#include "petri/persistence.hpp"

#include <utility>

#include "petri/parallel.hpp"

namespace rap::petri {

PersistenceResult check_persistence(const Net& net,
                                    PersistenceOptions options) {
    ReachabilityOptions ropts;
    ropts.max_states = options.max_states;
    ropts.threads = 1;  // one worker: no thread pool for a convenience check
    ParallelReachabilityExplorer explorer(net, ropts);

    MultiQuery query;
    query.check_persistence = true;
    query.persistence_exempt = std::move(options.exempt);
    query.persistence_stop_at_first = options.stop_at_first;
    auto multi = explorer.run_query(query);

    PersistenceResult result;
    result.states_explored = multi.states_explored;
    result.truncated = multi.truncated;
    result.violations = std::move(multi.persistence_violations);
    return result;
}

}  // namespace rap::petri
