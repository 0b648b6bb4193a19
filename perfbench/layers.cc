/**
 * @file
 * The traced run (--trace 1): calls each layer's functions one at a
 * time, timed from here, and prints every per-layer metric. The
 * end-to-end numbers never come from this run. README.md lists which
 * end-to-end metric each layer metric should move, and on which
 * workload.
 */
#include <algorithm>
#include <map>

#include "core/report.h"
#include "core/suite.h"
#include "driver.h"
#include "fdo/fdo.h"
#include "runtime/persistent_cache.h"
#include "runtime/result_cache.h"
#include "stats/summary.h"
#include "support/check.h"

namespace perfbench {

namespace {

using namespace alberta;

using BenchmarkPtr = std::unique_ptr<runtime::Benchmark>;

/** Median seconds of @p reps calls of @p body. */
template <typename Body>
double
medianSeconds(int reps, const Body &body)
{
    std::vector<double> seconds;
    for (int r = 0; r < reps; ++r) {
        const auto t = Clock::now();
        body();
        seconds.push_back(since(t));
    }
    return median(seconds);
}

struct Generated
{
    BenchmarkPtr benchmark;
    std::vector<runtime::Workload> workloads;
};

/** benchmarks.*: Benchmark::workloads() for every benchmark. */
std::vector<Generated>
generationLayer(Outcome &out)
{
    std::vector<Generated> all;
    std::uint64_t bytes = 0;
    for (auto &bm : core::allBenchmarks()) {
        const auto t = Clock::now();
        auto workloads = bm->workloads();
        out.metric("benchmarks.gen_s." + bm->name(), since(t), "s");
        for (const auto &w : workloads)
            for (const auto &[file, contents] : w.files)
                bytes += contents.size();
        all.push_back({std::move(bm), std::move(workloads)});
    }
    out.metric("benchmarks.gen_bytes", static_cast<double>(bytes), "count");
    return all;
}

/** model.*: runtime::runOnce over each benchmark's workloads (the
 * kernels plus topdown::Machine), two benchmarks at a time. */
void
modelLayer(const std::vector<Generated> &all, Outcome &out)
{
    std::vector<double> seconds(all.size());
    std::vector<std::uint64_t> uops(all.size());
    onWorkers(all.size(), [&](std::size_t b) {
        for (const auto &w : all[b].workloads) {
            const auto t = Clock::now();
            const runtime::RunMeasurement m =
                runtime::runOnce(*all[b].benchmark, w);
            seconds[b] += since(t);
            uops[b] += m.retiredOps;
        }
    });
    std::uint64_t total = 0;
    for (std::size_t b = 0; b < all.size(); ++b) {
        const std::string name = all[b].benchmark->name();
        out.metric("model.run_s." + name, seconds[b], "s");
        out.metric("model.ns_per_uop." + name,
                   seconds[b] * 1e9 / static_cast<double>(uops[b]), "ns");
        total += uops[b];
    }
    out.metric("model.uops", static_cast<double>(total), "count");
}

const Generated &
find(const std::vector<Generated> &all, const std::string &name)
{
    for (const auto &g : all)
        if (g.benchmark->name() == name)
            return g;
    support::fatal("perfbench: no benchmark ", name);
}

/** runtime.*, core.* and serve.*: a cold and a disk-warm Table II
 * through execute, then the cache, rendering, summary, request and
 * transport layers one at a time. */
void
pipelineLayers(const Args &args, const std::vector<Generated> &all,
               Outcome &out)
{
    const std::string cacheDir = args.workDir + "/layers-cache";
    const core::RunRequest suite = request("suite", "", "");
    runtime::Engine engine = makeEngine(cacheDir);
    std::vector<core::Characterization> rows;
    const auto t = Clock::now();
    const core::RunResult cold = core::execute(suite, engine, &rows);
    const double wall = since(t);
    ++out.attempted;
    out.failed += cold.ok ? 0 : 1;
    for (const auto &c : rows)
        out.expect(checkCharacterization(c));
    const runtime::ExecutorStats stats = engine.stats();
    out.metric("runtime.executor_busy_s", stats.runSeconds, "s");
    out.metric("runtime.executor_queue_s", stats.queueSeconds, "s");
    out.metric("runtime.worker_utilization",
               stats.runSeconds / (kWorkers * wall), "ratio");
    out.metric("runtime.disk_writes",
               static_cast<double>(engine.disk()->writes()), "count");
    {
        runtime::Engine warm = makeEngine(cacheDir);
        const core::RunResult again = core::execute(suite, warm);
        ++out.attempted;
        out.failed += again.ok ? 0 : 1;
        if (again.payload != cold.payload)
            out.problems.push_back("warm Table II payload differs");
        out.metric("runtime.disk_hits",
                   static_cast<double>(warm.disk()->hits()), "count");
    }

    // Cache layers over every Table II pair.
    std::vector<double> probeUs, readMs, writeMs;
    const runtime::PersistentCache disk(args.workDir + "/layers-disk");
    for (const std::string &name : core::table2Names()) {
        const Generated &g = find(all, name);
        for (const auto &w : g.workloads) {
            runtime::CachedRun run;
            auto t0 = Clock::now();
            const bool hit = engine.cache().lookup(*g.benchmark, w, &run);
            probeUs.push_back(since(t0) * 1e6);
            if (!hit) {
                out.problems.push_back(name + "/" + w.name +
                                       ": warm lookup missed");
                continue;
            }
            t0 = Clock::now();
            disk.store(*g.benchmark, w, run);
            writeMs.push_back(since(t0) * 1e3);
            t0 = Clock::now();
            runtime::CachedRun back;
            const bool loaded = disk.load(*g.benchmark, w, &back);
            readMs.push_back(since(t0) * 1e3);
            if (!loaded || back.measurement.checksum !=
                               run.measurement.checksum)
                out.problems.push_back(name + "/" + w.name +
                                       ": disk round trip failed");
        }
    }
    out.metric("runtime.cache_probe_us", median(probeUs), "us");
    out.metric("runtime.disk_read_ms", median(readMs), "ms");
    out.metric("runtime.disk_write_ms", median(writeMs), "ms");

    const core::ReportWriter writer(core::ReportFormat::Json);
    out.metric("core.render_table2_ms",
               medianSeconds(21, [&] { (void)writer.table2(rows); }) * 1e3,
               "ms");
    out.metric("core.summarize_ms", medianSeconds(21, [&] {
                   for (const auto &c : rows) {
                       (void)stats::summarizeTopdown(c.topdownPerWorkload);
                       (void)stats::summarizeCoverage(
                           c.coveragePerWorkload);
                   }
               }) * 1e3,
               "ms");

    // core::execute of a warm `run` request per benchmark; the one
    // benchmark outside Table II is warmed first.
    std::map<std::string, double> executeMs;
    for (const auto &g : all) {
        const core::RunRequest run =
            request("run", g.benchmark->name(), "test");
        const auto test = std::find_if(
            g.workloads.begin(), g.workloads.end(),
            [](const auto &w) { return w.name == "test"; });
        support::fatalIf(test == g.workloads.end(), "perfbench: ",
                         g.benchmark->name(), " has no test workload");
        if (!engine.cache().lookup(*g.benchmark, *test, nullptr))
            (void)core::execute(run, engine);
        const auto t0 = Clock::now();
        const core::RunResult r = core::execute(run, engine);
        executeMs[g.benchmark->name()] = since(t0) * 1e3;
        ++out.attempted;
        out.failed += r.ok ? 0 : 1;
        out.metric("core.execute_run_ms." + g.benchmark->name(),
                   executeMs[g.benchmark->name()], "ms");
    }

    // serve.*: the cheapest warm request, so the difference between
    // client latency and in-process execute is the transport.
    const auto cheapest = std::min_element(
        executeMs.begin(), executeMs.end(),
        [](const auto &a, const auto &b) { return a.second < b.second; });
    const Pair pair{cheapest->first, "test"};
    const core::RunRequest run = request("run", pair.benchmark, "test");
    constexpr int kReps = 51;
    const double executeS =
        medianSeconds(kReps, [&] { (void)core::execute(run, engine); });
    double clientS = 0.0;
    {
        Daemon daemon(args.workDir + "/layers-serve");
        Client client(daemon.socketPath());
        std::uint64_t id = 1;
        (void)client.call(runLine(id++, pair)); // cold
        clientS = medianSeconds(kReps, [&] {
            const std::string reply = client.call(runLine(id, pair));
            ++out.attempted;
            if (reply.find("\"ok\":true") == std::string::npos)
                ++out.failed;
            ++id;
        });
    }
    out.metric("serve.transport_ms", (clientS - executeS) * 1e3, "ms");
    const std::string requestJson =
        runLine(0, pair).substr(runLine(0, pair).find("\"run\":{") + 6);
    const std::string body = requestJson.substr(0, requestJson.size() - 1);
    out.metric("serve.parse_us", medianSeconds(1001, [&] {
                   (void)core::RunRequest::fromJsonText(body);
               }) * 1e6,
               "us");
    const core::RunResult result = core::execute(run, engine);
    out.metric("serve.encode_us",
               medianSeconds(1001, [&] { (void)result.toJson(); }) * 1e6,
               "us");
}

/** fdo.*: the steps of crossValidate for the six benchmarks, timed
 * one at a time, two benchmarks at a time. */
void
fdoLayer(Outcome &out)
{
    const auto &names = fdoBenchmarks();
    struct Times
    {
        double gen = 0.0, profile = 0.0, compile = 0.0, eval = 0.0;
    };
    std::vector<Times> times(names.size());
    onWorkers(names.size(), [&](std::size_t b) {
        const auto bm = core::makeBenchmark(names[b]);
        auto t = Clock::now();
        const auto workloads = bm->workloads();
        times[b].gen = since(t);
        const runtime::Workload &train = *std::find_if(
            workloads.begin(), workloads.end(),
            [](const auto &w) { return w.name == "train"; });
        t = Clock::now();
        const fdo::Profile profile = fdo::collectProfile(*bm, train);
        times[b].profile = since(t);
        t = Clock::now();
        const fdo::Optimization opt = fdo::compileOptimization(profile);
        times[b].compile = since(t);
        t = Clock::now();
        for (const auto &w : workloads)
            (void)fdo::runOptimized(*bm, w, &opt);
        times[b].eval = since(t);
    });
    for (std::size_t b = 0; b < names.size(); ++b) {
        out.metric("fdo.gen_s." + names[b], times[b].gen, "s");
        out.metric("fdo.profile_s." + names[b], times[b].profile, "s");
        out.metric("fdo.compile_ms." + names[b], times[b].compile * 1e3,
                   "ms");
        out.metric("fdo.eval_s." + names[b], times[b].eval, "s");
        ++out.attempted;
    }
}

} // namespace

Outcome
runLayers(const Args &args)
{
    Outcome out;
    const std::vector<Generated> all = generationLayer(out);
    modelLayer(all, out);
    pipelineLayers(args, all, out);
    fdoLayer(out);
    return out;
}

} // namespace perfbench
