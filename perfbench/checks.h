/**
 * @file
 * The benchmark's correctness checks. Each check recomputes what it
 * verifies apart from the program (its own Eqs. 1-5, its own payload
 * field reader, its own geometric mean) or tests a property the
 * method must have, and returns a list of problems: empty means the
 * check passed. perfbench_selftest feeds every check a deliberately
 * wrong input and requires a non-empty list.
 */
#ifndef PERFBENCH_CHECKS_H
#define PERFBENCH_CHECKS_H

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/suite.h"
#include "fdo/fdo.h"
#include "runtime/benchmark.h"
#include "stats/summary.h"

namespace perfbench {

using Problems = std::vector<std::string>;

/** Tolerance for recomputed floating-point summaries and sums. */
inline constexpr double kTolerance = 1e-9;

/** The four top-down fractions lie in [0, 1] and sum to 1. */
Problems checkTopdown(const alberta::stats::TopdownRatios &ratios,
                      const std::string &where);

/** A method-coverage map's fractions sum to 1. */
Problems checkCoverage(const alberta::stats::CoverageMap &coverage,
                       const std::string &where);

/** mu_g(V), Eqs. 1-4, computed from scratch: ratios clamped to the
 * 1e-4 floor, population geometric standard deviation. */
double referenceMuGV(
    std::span<const alberta::stats::TopdownRatios> workloads);

/** mu_g(M), Eq. 5, computed from scratch: percent units, methods
 * below 0.05% in every workload grouped into "others", +0.01 offset. */
double referenceMuGM(
    std::span<const alberta::stats::CoverageMap> workloads);

/** Every per-workload fraction and coverage map of one Table II row
 * is well formed, and the row's mu_g(V) and mu_g(M) equal the
 * recomputed ones within kTolerance. */
Problems checkCharacterization(const alberta::core::Characterization &c);

/** The same run reached two ways gives identical outputs. */
Problems checkSameRun(const alberta::runtime::RunMeasurement &expected,
                      std::uint64_t checksum, std::uint64_t uops,
                      const alberta::stats::TopdownRatios &ratios,
                      const std::string &where);

/** A served `run` response answers request @p id for
 * (@p benchmark, @p workload) with the outputs of @p expected. */
Problems checkRunResponse(std::string_view line, std::uint64_t id,
                          const std::string &benchmark,
                          const std::string &workload,
                          const alberta::runtime::RunMeasurement &expected);

/** Every speedup is finite and positive, and meanCross is the
 * geometric mean of evalSpeedups. */
Problems checkCrossValidation(const alberta::fdo::CrossValidation &cv);

/** Two doubles are the same bits. */
bool sameBits(double a, double b);

} // namespace perfbench

#endif // PERFBENCH_CHECKS_H
