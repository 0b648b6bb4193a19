/**
 * @file
 * The repository benchmark's driver. One process drives the program
 * through its public entry points only — core::execute, the
 * alberta_serve socket protocol (an in-process serve::Server) and
 * fdo::crossValidate — and prints one JSON result line.
 *
 *   perfbench_driver --workload {table2|serve-mix|fdo-xval}
 *                    --seed N --seconds S --trace {0|1} --work-dir DIR
 *
 * --trace 0 measures the end-to-end metrics; --trace 1 runs the layer
 * sweep (layers.cc) instead. Every request carries only kind,
 * benchmark and workload; everything else is the RunRequest default.
 * The load stays below the host's 4 cores: 2 engine workers, 2
 * dispatchers, 2 client connections. See README.md.
 */
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "checks.h"
#include "core/request.h"
#include "core/suite.h"
#include "driver.h"
#include "fdo/fdo.h"
#include "runtime/engine.h"
#include "serve/server.h"
#include "support/check.h"

namespace perfbench {

using namespace alberta;

const Clock::time_point kProcessStart = Clock::now();

double
since(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double
median(std::vector<double> values)
{
    support::fatalIf(values.empty(), "perfbench: median of nothing");
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

void
Outcome::metric(const std::string &name, double value,
                const std::string &unit)
{
    metrics.push_back({name, value, unit});
}

void
Outcome::figure(const std::string &name, double value,
                const std::string &unit)
{
    figures.push_back({name, value, unit});
}

void
Outcome::expect(Problems found)
{
    for (auto &p : found)
        problems.push_back(std::move(p));
}

std::string
Outcome::json() const
{
    std::ostringstream os;
    os << "{\"correct\": " << (problems.empty() ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        char value[40];
        std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
        os << (i ? ", " : "") << '"' << metrics[i].name
           << "\": {\"value\": " << value << ", \"unit\": \""
           << metrics[i].unit << "\"}";
    }
    os << "}}";
    return os.str();
}

runtime::Engine
makeEngine(const std::string &cacheDir)
{
    return runtime::Engine::Builder()
        .jobs(kWorkers)
        .cacheDir(cacheDir)
        .build();
}

core::RunRequest
request(const std::string &kind, const std::string &benchmark,
        const std::string &workload)
{
    core::RunRequest r;
    r.kind = kind;
    r.benchmark = benchmark;
    r.workload = workload;
    return r;
}

std::string
runLine(std::uint64_t id, const Pair &pair)
{
    return "{\"op\":\"run\",\"id\":" + std::to_string(id) +
           ",\"run\":{\"kind\":\"run\",\"benchmark\":\"" + pair.benchmark +
           "\",\"workload\":\"" + pair.workload + "\"}}";
}

Client::Client(const std::string &socketPath)
{
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    support::fatalIf(fd_ < 0, "socket(): ", std::strerror(errno));
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    support::fatalIf(socketPath.size() >= sizeof(addr.sun_path),
                     "socket path too long: ", socketPath);
    std::memcpy(addr.sun_path, socketPath.c_str(), socketPath.size() + 1);
    const auto deadline = Clock::now() + std::chrono::seconds(20);
    while (::connect(fd_, reinterpret_cast<const sockaddr *>(&addr),
                     sizeof(addr)) != 0) {
        support::fatalIf(Clock::now() >= deadline, "connect(", socketPath,
                         "): ", std::strerror(errno));
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
}

Client::~Client()
{
    if (fd_ >= 0)
        ::close(fd_);
}

std::string
Client::call(const std::string &line)
{
    std::string framed = line + "\n";
    for (std::size_t off = 0; off < framed.size();) {
        const ssize_t n = ::send(fd_, framed.data() + off,
                                 framed.size() - off, MSG_NOSIGNAL);
        if (n < 0 && errno == EINTR)
            continue;
        support::fatalIf(n <= 0, "send(): ", std::strerror(errno));
        off += static_cast<std::size_t>(n);
    }
    for (;;) {
        const std::size_t nl = buffer_.find('\n');
        if (nl != std::string::npos) {
            std::string reply = buffer_.substr(0, nl);
            buffer_.erase(0, nl + 1);
            return reply;
        }
        char chunk[8192];
        const ssize_t n = ::read(fd_, chunk, sizeof chunk);
        if (n < 0 && errno == EINTR)
            continue;
        support::fatalIf(n <= 0, "read(): connection closed");
        buffer_.append(chunk, static_cast<std::size_t>(n));
    }
}

Daemon::Daemon(const std::string &dir)
    : socketPath_(dir + "/serve.sock")
{
    serve::ServerOptions options;
    options.socketPath = socketPath_;
    options.jobs = kWorkers;
    options.cacheDir = dir + "/cache";
    options.cacheDirGiven = true;
    options.dispatchers = kDispatchers;
    server_ = std::make_unique<serve::Server>(std::move(options));
    thread_ = std::thread([this] { server_->serve(); });
}

Daemon::~Daemon()
{
    server_->beginShutdown();
    thread_.join();
}

const std::vector<std::string> &
fdoBenchmarks()
{
    // The six of bench/ablation_fdo_crossval.cc.
    static const std::vector<std::string> names = {
        "505.mcf_r",       "557.xz_r",      "531.deepsjeng_r",
        "523.xalancbmk_r", "520.omnetpp_r", "548.exchange2_r"};
    return names;
}

namespace {

double
processCpuSeconds()
{
    ::timespec ts{};
    ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

double
peakRssMb()
{
    ::rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double
geometricMean(const std::vector<double> &values)
{
    support::fatalIf(values.empty(), "perfbench: mean of nothing");
    double sum = 0.0;
    for (double v : values)
        sum += std::log(v);
    return std::exp(sum / static_cast<double>(values.size()));
}

/** The test and train workloads of every registered benchmark. */
std::vector<Pair>
servePairs()
{
    std::vector<Pair> pairs;
    for (const auto &bm : core::allBenchmarks())
        for (const char *workload : {"test", "train"})
            pairs.push_back({bm->name(), workload});
    return pairs;
}

/** A seeded permutation of 0..n-1 (Fisher-Yates). */
std::vector<std::size_t>
shuffled(std::size_t n, std::mt19937_64 &rng)
{
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i)
        order[i] = i;
    for (std::size_t i = n; i > 1; --i)
        std::swap(order[i - 1], order[rng() % i]);
    return order;
}

/** Direct runOnce of every pair: the reference for served payloads.
 * Each benchmark's workload set is generated once for both pairs. */
std::map<std::string, runtime::RunMeasurement>
directRuns(const std::vector<Pair> &pairs)
{
    std::map<std::string, std::vector<std::string>> byBenchmark;
    for (const Pair &p : pairs)
        byBenchmark[p.benchmark].push_back(p.workload);
    std::vector<std::string> names;
    for (const auto &[name, workloads] : byBenchmark)
        names.push_back(name);
    std::map<std::string, runtime::RunMeasurement> out;
    std::mutex mu;
    onWorkers(names.size(), [&](std::size_t i) {
        const auto bm = core::makeBenchmark(names[i]);
        const auto workloads = bm->workloads();
        for (const std::string &wanted : byBenchmark.at(names[i]))
            for (const auto &w : workloads)
                if (w.name == wanted) {
                    auto m = runtime::runOnce(*bm, w);
                    std::lock_guard<std::mutex> lock(mu);
                    out[names[i] + "/" + wanted] = std::move(m);
                }
    });
    return out;
}

// --- table2 ------------------------------------------------------------

Outcome
runTable2(const Args &args)
{
    Outcome out;
    const std::string cacheDir = args.workDir + "/table2-cache";
    const core::RunRequest suite = request("suite", "", "");

    // Set-up: the cold Table II every later pass reads from disk.
    const double cpu0 = processCpuSeconds();
    runtime::Engine cold = makeEngine(cacheDir);
    std::vector<core::Characterization> rows;
    const core::RunResult coldResult = core::execute(suite, cold, &rows);
    const double setupCpu = processCpuSeconds() - cpu0;
    const double setup = since(kProcessStart);
    ++out.attempted;
    out.failed += coldResult.ok ? 0 : 1;
    std::size_t workloads = 0;
    for (const auto &c : rows)
        workloads += c.workloadNames.size();

    // Timed: disk-warm passes, each through a fresh engine on the same
    // directory, as a second `alberta_cli --cache-dir` session runs.
    std::vector<double> passes;
    const auto start = Clock::now();
    while (passes.size() < kMinPasses || since(start) < args.seconds) {
        const auto t = Clock::now();
        runtime::Engine warm = makeEngine(cacheDir);
        const core::RunResult result = core::execute(suite, warm);
        passes.push_back(since(t));
        std::cerr << "perfbench: warm Table II pass " << passes.back()
                  << " s\n";
        ++out.attempted;
        out.failed += result.ok ? 0 : 1;
        if (result.payload != coldResult.payload)
            out.problems.push_back("warm Table II payload differs from "
                                   "the cold one");
        if (warm.disk()->hits() != workloads || warm.disk()->misses() != 0)
            out.problems.push_back(
                "warm pass: " + std::to_string(warm.disk()->hits()) +
                " disk hits, " + std::to_string(warm.disk()->misses()) +
                " misses, expected " + std::to_string(workloads) +
                " and 0");
    }
    const double rss = peakRssMb();

    // Checks: every row against Eqs. 1-5 recomputed here, and a seeded
    // sample of pairs re-run directly (no engine, cache or scheduler).
    if (workloads != kTable2Workloads)
        out.problems.push_back("Table II has " + std::to_string(workloads) +
                               " workloads");
    for (const auto &c : rows)
        out.expect(checkCharacterization(c));
    std::mt19937_64 rng(args.seed);
    for (int s = 0; s < kDirectSamples && !rows.empty(); ++s) {
        const auto &c = rows[rng() % rows.size()];
        const std::size_t i = rng() % c.workloadNames.size();
        const auto bm = core::makeBenchmark(c.benchmark);
        const runtime::Workload w =
            runtime::findWorkload(*bm, c.workloadNames[i]);
        const runtime::RunMeasurement direct = runtime::runOnce(*bm, w);
        const std::string where = c.benchmark + "/" + w.name;
        runtime::CachedRun cached;
        if (!cold.cache().lookup(*bm, w, &cached)) {
            out.problems.push_back(where + ": not in the result cache");
            continue;
        }
        const auto &m = cached.measurement;
        out.expect(checkSameRun(direct, m.checksum, m.retiredOps,
                                m.topdown, where + " (engine)"));
        out.expect(checkSameRun(direct, c.checksumPerWorkload[i],
                                direct.retiredOps, c.topdownPerWorkload[i],
                                where + " (Table II row)"));
    }

    out.metric("setup_s", setup, "s");
    out.figure("setup_cpu_s", setupCpu, "s");
    out.figure("pass_s", median(passes), "s");
    std::vector<double> ms;
    for (double p : passes)
        ms.push_back(p * 1e3);
    out.figure("latency_gmean_ms", geometricMean(ms), "ms");
    out.metric("peak_rss_mb", rss, "MB");
    return out;
}

// --- serve-mix -----------------------------------------------------------

struct Sent
{
    std::uint64_t id = 0;
    std::size_t pair = 0;
    std::string reply;
    double seconds = 0.0;
};

Outcome
runServeMix(const Args &args)
{
    Outcome out;
    const std::vector<Pair> pairs = servePairs();
    const double cpu0 = processCpuSeconds();
    Daemon daemon(args.workDir + "/serve");
    Client clients[kClients] = {Client(daemon.socketPath()),
                                Client(daemon.socketPath())};
    std::vector<Sent> sent[kClients];

    // Drive both clients in a closed loop over a shared sequence; next
    // returns false once no further request should start.
    std::uint64_t nextId = 1;
    const auto drive = [&](const std::function<bool(std::size_t *)> &next) {
        std::mutex mu;
        std::vector<std::thread> threads;
        for (int c = 0; c < kClients; ++c)
            threads.emplace_back([&, c] {
                for (;;) {
                    Sent s;
                    {
                        std::lock_guard<std::mutex> lock(mu);
                        if (!next(&s.pair))
                            return;
                        s.id = nextId++;
                    }
                    const auto t = Clock::now();
                    s.reply = clients[c].call(runLine(s.id, pairs[s.pair]));
                    s.seconds = since(t);
                    sent[c].push_back(std::move(s));
                }
            });
        for (auto &t : threads)
            t.join();
    };

    // Set-up: one request per pair, so the timed phase is all hits.
    std::size_t primed = 0;
    drive([&](std::size_t *pair) {
        *pair = primed;
        return primed++ < pairs.size();
    });
    const double setupCpu = processCpuSeconds() - cpu0;
    const double setup = since(kProcessStart);
    std::size_t primingReplies[kClients];
    for (int c = 0; c < kClients; ++c)
        primingReplies[c] = sent[c].size();

    // Timed: whole rounds of a seeded permutation of the pairs, one
    // sequence shared by the clients; no round starts once the time
    // is up.
    std::mt19937_64 rng(args.seed);
    std::vector<std::size_t> round;
    std::size_t pos = 0, rounds = 0;
    const auto start = Clock::now();
    drive([&](std::size_t *pair) {
        if (pos == round.size()) {
            if (rounds > 0 && since(start) >= args.seconds)
                return false;
            round = shuffled(pairs.size(), rng);
            pos = 0;
            ++rounds;
        }
        *pair = round[pos++];
        return true;
    });
    const double wall = since(start);
    const double rss = peakRssMb();

    // Latency per pair is its median over the rounds, so a stall
    // that hits one request does not move the mean.
    std::vector<std::vector<double>> perPair(pairs.size());
    for (int c = 0; c < kClients; ++c)
        for (std::size_t i = primingReplies[c]; i < sent[c].size(); ++i)
            perPair[sent[c][i].pair].push_back(sent[c][i].seconds * 1e3);
    std::vector<double> latencyMs;
    for (const auto &samples : perPair)
        latencyMs.push_back(median(samples));

    // Checks: every reply is ok, answers its own id (each client has
    // one request in flight, so id order is send order) and carries
    // the outputs of a direct run of its pair.
    const auto reference = directRuns(pairs);
    for (int c = 0; c < kClients; ++c) {
        std::uint64_t lastId = 0;
        for (const Sent &s : sent[c]) {
            ++out.attempted;
            if (s.reply.find("\"ok\":true") == std::string::npos)
                ++out.failed;
            if (s.id <= lastId)
                out.problems.push_back("client replies out of order");
            lastId = s.id;
            const Pair &p = pairs[s.pair];
            out.expect(checkRunResponse(
                s.reply, s.id, p.benchmark, p.workload,
                reference.at(p.benchmark + "/" + p.workload)));
        }
    }

    out.metric("setup_s", setup, "s");
    out.figure("setup_cpu_s", setupCpu, "s");
    out.figure("pass_s", wall / static_cast<double>(rounds), "s");
    out.figure("latency_gmean_ms", geometricMean(latencyMs), "ms");
    out.metric("peak_rss_mb", rss, "MB");
    return out;
}

// --- fdo-xval ------------------------------------------------------------

Outcome
runFdoXval(const Args &args)
{
    Outcome out;
    const double cpu0 = processCpuSeconds();
    runtime::Engine engine = makeEngine("");
    // Set-up: characterize the six benchmarks through the engine, so
    // baseline runs come from its result cache as in a real session.
    for (const std::string &name : fdoBenchmarks()) {
        const core::RunResult r =
            core::execute(request("characterize", name, ""), engine);
        ++out.attempted;
        out.failed += r.ok ? 0 : 1;
    }
    const double setupCpu = processCpuSeconds() - cpu0;
    const double setup = since(kProcessStart);

    fdo::CrossValidateOptions options;
    options.engine = &engine;
    std::vector<double> roundSeconds;
    std::vector<std::vector<double>> callMs(fdoBenchmarks().size());
    std::vector<fdo::CrossValidation> first;
    const auto start = Clock::now();
    while (roundSeconds.empty() || since(start) < args.seconds) {
        const auto roundStart = Clock::now();
        std::vector<fdo::CrossValidation> results;
        for (std::size_t b = 0; b < fdoBenchmarks().size(); ++b) {
            const auto t = Clock::now();
            const auto bm = core::makeBenchmark(fdoBenchmarks()[b]);
            results.push_back(fdo::crossValidate(*bm, "train", options));
            callMs[b].push_back(since(t) * 1e3);
            std::cerr << "perfbench: crossValidate " << fdoBenchmarks()[b]
                      << " " << callMs[b].back() << " ms\n";
            ++out.attempted;
        }
        roundSeconds.push_back(since(roundStart));
        if (first.empty()) {
            first = std::move(results);
            continue;
        }
        for (std::size_t b = 0; b < results.size(); ++b) {
            const auto &a = first[b], &r = results[b];
            bool same = sameBits(a.selfSpeedup, r.selfSpeedup) &&
                        a.evalSpeedups.size() == r.evalSpeedups.size();
            for (std::size_t i = 0; same && i < a.evalSpeedups.size(); ++i)
                same = sameBits(a.evalSpeedups[i], r.evalSpeedups[i]);
            if (!same)
                out.problems.push_back(a.benchmark + ": cross-validation "
                                       "differs between rounds");
        }
    }
    const double rss = peakRssMb();

    // Checks: the program's summary arithmetic, then the serial,
    // uncached fdoSpeedup for train and one seeded eval workload.
    std::mt19937_64 rng(args.seed);
    struct Probe
    {
        std::size_t benchmark;
        std::string eval; //!< "" = the training workload itself
        double expected;
    };
    std::vector<Probe> probes;
    for (std::size_t b = 0; b < first.size(); ++b) {
        const fdo::CrossValidation &cv = first[b];
        out.expect(checkCrossValidation(cv));
        if (cv.evalNames.empty())
            continue;
        const std::size_t i = rng() % cv.evalNames.size();
        probes.push_back({b, "", cv.selfSpeedup});
        probes.push_back({b, cv.evalNames[i], cv.evalSpeedups[i]});
    }
    std::vector<double> serial(probes.size());
    onWorkers(probes.size(), [&](std::size_t p) {
        const Probe &probe = probes[p];
        const auto bm = core::makeBenchmark(first[probe.benchmark].benchmark);
        const auto workloads = bm->workloads();
        const std::string evalName = probe.eval.empty() ? "train" : probe.eval;
        const runtime::Workload *train = nullptr, *eval = nullptr;
        for (const auto &w : workloads) {
            if (w.name == "train")
                train = &w;
            if (w.name == evalName)
                eval = &w;
        }
        serial[p] = train && eval ? fdo::fdoSpeedup(*bm, *train, *eval)
                                  : std::nan("");
    });
    for (std::size_t p = 0; p < probes.size(); ++p)
        if (!sameBits(serial[p], probes[p].expected))
            out.problems.push_back(
                first[probes[p].benchmark].benchmark + "/" +
                (probes[p].eval.empty() ? "train" : probes[p].eval) +
                ": serial fdoSpeedup differs from the engine's");

    out.metric("setup_s", setup, "s");
    out.figure("setup_cpu_s", setupCpu, "s");
    out.figure("pass_s", median(roundSeconds), "s");
    std::vector<double> perBenchmarkMs;
    for (const auto &samples : callMs)
        perBenchmarkMs.push_back(median(samples));
    out.figure("latency_gmean_ms", geometricMean(perBenchmarkMs), "ms");
    out.metric("peak_rss_mb", rss, "MB");
    return out;
}

Outcome
runWorkload(const Args &args)
{
    if (args.trace)
        return runLayers(args);
    if (args.workload == "table2")
        return runTable2(args);
    if (args.workload == "serve-mix")
        return runServeMix(args);
    return runFdoXval(args);
}

} // namespace

} // namespace perfbench

namespace {

int
usage(const std::string &message)
{
    std::cerr << "perfbench_driver: " << message
              << "\nusage: perfbench_driver --workload "
                 "{table2|serve-mix|fdo-xval} --seed N --seconds S "
                 "--trace {0|1} --work-dir DIR\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    perfbench::Args args;
    bool haveSeed = false, haveSeconds = false, haveTrace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            return usage("missing value for " + flag);
        const std::string value = argv[++i];
        try {
            if (flag == "--workload") {
                args.workload = value;
            } else if (flag == "--seed") {
                args.seed = std::stoull(value);
                haveSeed = true;
            } else if (flag == "--seconds") {
                args.seconds = std::stod(value);
                haveSeconds = args.seconds > 0.0;
            } else if (flag == "--trace") {
                args.trace = value == "1";
                haveTrace = value == "0" || value == "1";
            } else if (flag == "--work-dir") {
                args.workDir = value;
            } else {
                return usage("unknown flag " + flag);
            }
        } catch (const std::exception &) {
            return usage("bad value for " + flag + ": " + value);
        }
    }
    if (args.workload != "table2" && args.workload != "serve-mix" &&
        args.workload != "fdo-xval")
        return usage("unknown workload '" + args.workload + "'");
    if (!haveSeed || !haveSeconds || !haveTrace || args.workDir.empty())
        return usage("--seed, --seconds, --trace and --work-dir are "
                     "required");
    try {
        const perfbench::Outcome out = perfbench::runWorkload(args);
        for (const perfbench::Metric &f : out.figures)
            std::cerr << "perfbench: figure " << f.name << " " << f.value
                      << " " << f.unit << "\n";
        for (const std::string &p : out.problems)
            std::cerr << "perfbench: check failed: " << p << "\n";
        std::cout << out.json() << std::endl;
        return out.problems.empty() ? 0 : 3;
    } catch (const std::exception &e) {
        std::cerr << "perfbench_driver: " << e.what() << "\n";
        return 1;
    }
}
