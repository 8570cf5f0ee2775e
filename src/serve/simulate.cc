#include "serve/simulate.hh"

#include <memory>

#include "baseline/presets.hh"
#include "nn/graph_io.hh"
#include "nn/models.hh"
#include "rt/hetero_runtime.hh"
#include "sim/hash.hh"
#include "sim/logging.hh"
#include "sim/memo_cache.hh"

namespace hpim::serve {

namespace {

/**
 * User graphs are pure functions of their document text; memoize the
 * parse + reconstruction the same way nn::buildModel memoizes
 * built-in model builds, keyed on the exact bytes of the document.
 */
std::shared_ptr<const hpim::nn::Graph>
cachedUserGraph(const std::string &text)
{
    auto &cache = hpim::sim::MemoCache::instance();
    std::uint64_t key = hpim::sim::hashString(text);
    if (auto hit = cache.find<hpim::nn::Graph>(key, "nn.graph.user"))
        return hit;
    auto built = std::make_shared<const hpim::nn::Graph>(
        hpim::nn::loadGraph(text));
    cache.put<hpim::nn::Graph>(key, "nn.graph.user", built);
    return built;
}

} // namespace

hpim::rt::ExecutionReport
runSimulate(const SimulateSpec &spec)
{
    const bool user_graph = !spec.graph.empty();
    std::optional<hpim::nn::ModelId> model = modelFromToken(spec.model);
    std::optional<hpim::baseline::SystemKind> system =
        systemFromToken(spec.system);
    panic_if((!user_graph && !model) || !system,
             "runSimulate() called with an unvalidated spec (model '",
             spec.model, "', system '", spec.system, "')");
    panic_if(user_graph
                 && *system == hpim::baseline::SystemKind::Gpu,
             "graph workloads on the analytic GPU model must be "
             "rejected at request validation");

    const bool faults = spec.faultRate > 0.0 || spec.killBanks > 0;
    panic_if(faults && *system == hpim::baseline::SystemKind::Gpu,
             "fault injection on the analytic GPU model must be "
             "rejected at request validation");

    // The branch structure deliberately mirrors what hpim_cli always
    // did: the common paths go through baseline::runSystem; only fault
    // injection and explicit hetero feature flags need a hand-built
    // SystemConfig.
    if (faults
        || (*system == hpim::baseline::SystemKind::HeteroPim
            && (!spec.rc || !spec.op))) {
        hpim::rt::SystemConfig config =
            *system == hpim::baseline::SystemKind::HeteroPim
                ? hpim::baseline::makeHetero(true, spec.rc, spec.op,
                                             spec.freqScale,
                                             spec.progrPims)
                : hpim::baseline::makeConfig(*system, spec.freqScale,
                                             spec.progrPims);
        config.steps = spec.steps;
        if (faults) {
            config.faults.enabled = true;
            config.faults.transientRatePerOp = spec.faultRate;
            config.faults.killBanks = spec.killBanks;
            config.faults.seed = spec.faultSeed;
        }
        hpim::rt::HeteroRuntime runtime(config);
        if (user_graph) {
            std::shared_ptr<const hpim::nn::Graph> graph =
                cachedUserGraph(spec.graph);
            return runtime.train(*graph).execution;
        }
        hpim::nn::Graph graph =
            hpim::nn::buildModel(*model, spec.batch);
        return runtime.train(graph).execution;
    }
    if (user_graph) {
        std::shared_ptr<const hpim::nn::Graph> graph =
            cachedUserGraph(spec.graph);
        return hpim::baseline::runSystemGraph(*system, *graph,
                                              spec.steps,
                                              spec.freqScale,
                                              spec.progrPims);
    }
    return hpim::baseline::runSystem(*system, *model, spec.steps,
                                     spec.freqScale, spec.progrPims,
                                     spec.batch);
}

} // namespace hpim::serve
