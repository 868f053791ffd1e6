#include "petri/reachability.hpp"

#include "util/strings.hpp"

namespace rap::petri {

std::string Trace::to_string(const Net& net) const {
    std::vector<std::string> names;
    names.reserve(firings.size());
    for (TransitionId t : firings) names.push_back(net.transition_name(t));
    return util::join(names, " -> ");
}

std::string PersistenceViolation::to_string(const Net& net) const {
    return util::format("firing '%s' disables '%s' at %s",
                        net.transition_name(fired).c_str(),
                        net.transition_name(disabled).c_str(),
                        net.describe_marking(marking).c_str());
}

}  // namespace rap::petri
