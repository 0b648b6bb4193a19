/**
 * @file
 * The benchmark's own test: every correctness check in checks.h
 * accepts the program's real outputs and rejects a deliberately wrong
 * copy of them (a perturbed fraction, a wrong summary, a swapped
 * payload, a wrong id, a wrong geometric mean, a one-ulp speedup).
 *
 *   ctest --test-dir .bench_build/perfbench
 *   .bench_build/perfbench/perfbench_selftest
 */
#include <cmath>
#include <iostream>
#include <string>

#include "checks.h"
#include "core/request.h"
#include "core/suite.h"
#include "runtime/engine.h"
#include "serve/protocol.h"

namespace {

using namespace alberta;
using perfbench::Problems;

int failures = 0;

void
expectPass(const std::string &name, const Problems &problems)
{
    if (!problems.empty()) {
        ++failures;
        std::cout << "FAIL " << name << ": rejected a right input: "
                  << problems.front() << "\n";
    } else {
        std::cout << "ok   " << name << "\n";
    }
}

void
expectReject(const std::string &name, const Problems &problems)
{
    if (problems.empty()) {
        ++failures;
        std::cout << "FAIL " << name << ": accepted a wrong input\n";
    } else {
        std::cout << "ok   " << name << " (" << problems.front() << ")\n";
    }
}

/** A cheap benchmark with at least two workloads. */
constexpr const char *kBenchmark = "505.mcf_r";

void
characterizationChecks(const core::Characterization &real)
{
    expectPass("table2: real row", perfbench::checkCharacterization(real));

    core::Characterization c = real;
    c.topdownPerWorkload[0].frontend += 1e-6;
    expectReject("table2: fractions no longer sum to 1",
                 perfbench::checkCharacterization(c));

    c = real;
    c.topdownPerWorkload[0].backend = -0.25;
    c.topdownPerWorkload[0].retiring += 0.5;
    expectReject("table2: negative fraction",
                 perfbench::checkCharacterization(c));

    c = real;
    c.coveragePerWorkload[0].begin()->second += 1e-3;
    expectReject("table2: coverage no longer sums to 1",
                 perfbench::checkCharacterization(c));

    c = real;
    c.topdown.muGV *= 1.0 + 1e-6;
    expectReject("table2: wrong mu_g(V)",
                 perfbench::checkCharacterization(c));

    c = real;
    c.coverage.muGM *= 1.0 + 1e-6;
    expectReject("table2: wrong mu_g(M)",
                 perfbench::checkCharacterization(c));
}

void
runChecks(const runtime::Benchmark &bm, const runtime::Workload &w,
          const runtime::Workload &other)
{
    runtime::Engine engine(1);
    core::RunRequest request;
    request.kind = "run";
    request.benchmark = bm.name();
    request.workload = w.name;
    const std::string line =
        serve::renderResponse(7, core::execute(request, engine));
    const runtime::RunMeasurement direct = runtime::runOnce(bm, w);
    const runtime::RunMeasurement otherRun = runtime::runOnce(bm, other);

    expectPass("serve: real response",
               perfbench::checkRunResponse(line, 7, bm.name(), w.name,
                                           direct));
    expectReject("serve: wrong id",
                 perfbench::checkRunResponse(line, 8, bm.name(), w.name,
                                             direct));
    expectReject("serve: swapped payload",
                 perfbench::checkRunResponse(line, 7, bm.name(), w.name,
                                             otherRun));
    expectReject("serve: answer for another pair",
                 perfbench::checkRunResponse(line, 7, bm.name(),
                                             other.name, direct));
    core::RunResult failed;
    failed.ok = false;
    failed.kind = "run";
    failed.error = "boom";
    expectReject("serve: error response",
                 perfbench::checkRunResponse(
                     serve::renderResponse(7, failed), 7, bm.name(),
                     w.name, direct));

    runtime::RunMeasurement perturbed = direct;
    perturbed.topdown.frontend =
        std::nextafter(perturbed.topdown.frontend, 1.0);
    expectReject("direct run: one-ulp fraction",
                 perfbench::checkSameRun(perturbed, direct.checksum,
                                         direct.retiredOps, direct.topdown,
                                         "x"));
    expectReject("direct run: uops off by one",
                 perfbench::checkSameRun(direct, direct.checksum,
                                         direct.retiredOps + 1,
                                         direct.topdown, "x"));
    expectReject("direct run: checksum",
                 perfbench::checkSameRun(direct, direct.checksum ^ 1,
                                         direct.retiredOps, direct.topdown,
                                         "x"));
}

void
crossValidationChecks()
{
    fdo::CrossValidation cv;
    cv.benchmark = "x";
    cv.selfSpeedup = 1.2;
    cv.refSpeedup = 1.1;
    cv.evalNames = {"a", "b", "c"};
    cv.evalSpeedups = {1.1, 0.9, 1.3};
    cv.meanCross = std::cbrt(1.1 * 0.9 * 1.3);
    expectPass("fdo: right summary", perfbench::checkCrossValidation(cv));

    fdo::CrossValidation bad = cv;
    bad.meanCross = (1.1 + 0.9 + 1.3) / 3.0; // arithmetic, not geometric
    expectReject("fdo: wrong geometric mean",
                 perfbench::checkCrossValidation(bad));
    bad = cv;
    bad.evalSpeedups[1] = std::nan("");
    expectReject("fdo: NaN speedup", perfbench::checkCrossValidation(bad));
    bad = cv;
    bad.evalSpeedups[2] = 0.0;
    expectReject("fdo: zero speedup", perfbench::checkCrossValidation(bad));
    bad = cv;
    bad.selfSpeedup = -1.0;
    expectReject("fdo: negative self speedup",
                 perfbench::checkCrossValidation(bad));
    expectReject("fdo: one-ulp speedup is not the same bits",
                 perfbench::sameBits(1.2, std::nextafter(1.2, 2.0))
                     ? Problems{}
                     : Problems{"differs"});
}

} // namespace

int
main()
{
    const auto bm = core::makeBenchmark(kBenchmark);
    runtime::Engine engine(1);
    core::RunRequest request;
    request.kind = "characterize";
    request.benchmark = kBenchmark;
    std::vector<core::Characterization> rows;
    (void)core::execute(request, engine, &rows);
    characterizationChecks(rows.at(0));

    const auto workloads = bm->workloads();
    runChecks(*bm, workloads.at(0), workloads.at(1));
    crossValidationChecks();

    std::cout << (failures ? "FAILED" : "PASSED") << ": " << failures
              << " check(s) misbehaved\n";
    return failures ? 1 : 0;
}
