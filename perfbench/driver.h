/**
 * @file
 * Shared pieces of the benchmark driver: arguments, the result line,
 * the fixed load shape, and the socket client and in-process daemon
 * used by serve-mix and by the layer sweep.
 */
#ifndef PERFBENCH_DRIVER_H
#define PERFBENCH_DRIVER_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "checks.h"
#include "core/request.h"
#include "runtime/engine.h"

namespace alberta::serve {
class Server;
} // namespace alberta::serve

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** The load shape: below the host's 4 cores, so the program never
 * competes with itself for a core (README: "Load"). */
inline constexpr int kWorkers = 2;
inline constexpr int kDispatchers = 2;
inline constexpr int kClients = 2;
/** Disk-warm Table II passes per run, at least. */
inline constexpr std::size_t kMinPasses = 3;
/** Table II pairs re-run directly per table2 run. */
inline constexpr int kDirectSamples = 4;
/** Workloads of the 15 Table II benchmarks. */
inline constexpr std::size_t kTable2Workloads = 195;

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    std::string workDir;
};

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** What one run prints: operations attempted and failed, metrics,
 * and the problems its checks found (correct = none). Figures are
 * timings too unsteady on a shared host to gate on; they go to
 * standard error only (README: "Dropped metrics"). */
struct Outcome
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;
    std::vector<Metric> figures;
    Problems problems;

    void metric(const std::string &name, double value,
                const std::string &unit);
    void figure(const std::string &name, double value,
                const std::string &unit);
    void expect(Problems found);
    std::string json() const;
};

/** One (benchmark, workload) `run` request target. */
struct Pair
{
    std::string benchmark;
    std::string workload;
};

/** Blocking line client on the daemon's AF_UNIX socket. */
class Client
{
  public:
    explicit Client(const std::string &socketPath);
    ~Client();
    Client(const Client &) = delete;
    Client &operator=(const Client &) = delete;

    /** Send one request line and wait for its reply line. */
    std::string call(const std::string &line);

  private:
    int fd_ = -1;
    std::string buffer_;
};

/** An in-process alberta_serve daemon on @p dir/serve.sock with a
 * fresh cache in @p dir/cache; drained and joined on destruction. */
class Daemon
{
  public:
    explicit Daemon(const std::string &dir);
    ~Daemon();
    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    const std::string &socketPath() const { return socketPath_; }

  private:
    std::string socketPath_;
    std::unique_ptr<alberta::serve::Server> server_;
    std::thread thread_;
};

/** Run @p body(i) for every i in [0, n) on kWorkers threads. */
template <typename Body>
void
onWorkers(std::size_t n, const Body &body)
{
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> pool;
    for (int t = 0; t < kWorkers; ++t)
        pool.emplace_back([&] {
            for (std::size_t i; (i = next++) < n;)
                body(i);
        });
    for (auto &t : pool)
        t.join();
}

extern const Clock::time_point kProcessStart;

double since(Clock::time_point start);
double median(std::vector<double> values);

/** An engine of kWorkers workers ("" = no disk cache). */
alberta::runtime::Engine makeEngine(const std::string &cacheDir);

/** A RunRequest with only kind, benchmark and workload set. */
alberta::core::RunRequest request(const std::string &kind,
                                  const std::string &benchmark,
                                  const std::string &workload);

/** The wire line of a `run` request for @p pair. */
std::string runLine(std::uint64_t id, const Pair &pair);

/** The six benchmarks of the FDO cross-validation ablation. */
const std::vector<std::string> &fdoBenchmarks();

/** The --trace 1 run: every per-layer metric (layers.cc). */
Outcome runLayers(const Args &args);

} // namespace perfbench

#endif // PERFBENCH_DRIVER_H
