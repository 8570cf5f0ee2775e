#include "serve/simulate.hh"

#include <memory>
#include <string>
#include <vector>

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
 * The daemon's IO thread does not read the document, so this is its
 * only parse.
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
    std::vector<std::string> violations;
    checkSimSpec(spec, violations);
    panic_if(!violations.empty(),
             "runSimulate() called with an unvalidated spec: ",
             violations.front());
    const bool user_graph = !spec.graph.empty();
    const bool faults = spec.faultRate > 0.0 || spec.killBanks > 0;
    const std::optional<hpim::nn::ModelId> model =
        modelFromToken(spec.model);
    const std::optional<hpim::baseline::SystemKind> system =
        systemFromToken(spec.system);

    if (*system == hpim::baseline::SystemKind::Gpu)
        return hpim::baseline::runSystem(*system, *model, spec.steps,
                                         spec.freqScale, spec.progrPims,
                                         spec.batch);

    // runSystem's non-GPU tail, with the hetero feature flags and the
    // fault fields on top: makeConfig(HeteroPim, ...) is
    // makeHetero(true, true, true, ...).
    hpim::rt::SystemConfig config =
        *system == hpim::baseline::SystemKind::HeteroPim
            ? hpim::baseline::makeHetero(true, spec.rc, spec.op,
                                         spec.freqScale, spec.progrPims)
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
    if (user_graph)
        return runtime.train(*cachedUserGraph(spec.graph)).execution;
    return runtime.train(hpim::nn::buildModel(*model, spec.batch))
        .execution;
}

} // namespace hpim::serve
