#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <map>
#include <set>
#include <sstream>

namespace perfbench {

namespace {

using alberta::stats::CoverageMap;
using alberta::stats::TopdownRatios;

template <typename... Parts>
std::string
cat(const Parts &...parts)
{
    std::ostringstream os;
    os.precision(17);
    (os << ... << parts);
    return os.str();
}

double
logMean(const std::vector<double> &values)
{
    double sum = 0.0;
    for (double v : values)
        sum += std::log(v);
    return sum / static_cast<double>(values.size());
}

/** V = sigma_g / mu_g over one series (Eqs. 1-3). */
double
variation(const std::vector<double> &values)
{
    const double logMu = logMean(values);
    double acc = 0.0;
    for (double v : values)
        acc += (std::log(v) - logMu) * (std::log(v) - logMu);
    const double sigma =
        std::exp(std::sqrt(acc / static_cast<double>(values.size())));
    return sigma / std::exp(logMu);
}

double
geomean(const std::vector<double> &values)
{
    return std::exp(logMean(values));
}

bool
close(double a, double b)
{
    return std::fabs(a - b) <= kTolerance * std::max(1.0, std::fabs(b));
}

/** The text after `"key":` in @p line, or npos. */
std::size_t
valueAt(std::string_view line, std::string_view key)
{
    const std::string needle = cat('"', key, "\":");
    const std::size_t at = line.find(needle);
    return at == std::string_view::npos ? at : at + needle.size();
}

bool
readString(std::string_view line, std::string_view key, std::string *out)
{
    std::size_t at = valueAt(line, key);
    if (at == std::string_view::npos || at >= line.size() ||
        line[at] != '"')
        return false;
    const std::size_t end = line.find('"', at + 1);
    if (end == std::string_view::npos)
        return false;
    *out = std::string(line.substr(at + 1, end - at - 1));
    return true;
}

bool
readNumber(std::string_view line, std::string_view key, double *out)
{
    const std::size_t at = valueAt(line, key);
    if (at == std::string_view::npos)
        return false;
    const std::string tail(line.substr(at, 40));
    char *end = nullptr;
    *out = std::strtod(tail.c_str(), &end);
    return end != tail.c_str();
}

bool
readUint(std::string_view line, std::string_view key, std::uint64_t *out)
{
    std::size_t at = valueAt(line, key);
    if (at == std::string_view::npos)
        return false;
    if (at < line.size() && line[at] == '"')
        ++at; // checksums travel as strings
    const std::string tail(line.substr(at, 24));
    char *end = nullptr;
    *out = std::strtoull(tail.c_str(), &end, 10);
    return end != tail.c_str();
}

/** Outputs of one `run` payload, read without the program's parser. */
struct RunPayload
{
    std::string benchmark;
    std::string workload;
    TopdownRatios ratios;
    std::uint64_t uops = 0;
    std::uint64_t checksum = 0;
};

/**
 * Read one served response line: `{"id":N,"ok":true,...,
 * "payload":{...}}`. Adds to *problems when a field is missing or the
 * response is not ok.
 */
RunPayload
readRunResponse(std::string_view line, std::uint64_t *id,
                Problems *problems)
{
    RunPayload out;
    bool ok = readUint(line, "id", id) &&
              line.find("\"ok\":true") != std::string_view::npos;
    const std::size_t payload = line.find("\"payload\":{");
    ok = ok && payload != std::string_view::npos;
    if (!ok) {
        problems->push_back(cat("not an ok run response: ", line));
        return out;
    }
    const std::string_view body = line.substr(payload);
    ok = readString(body, "benchmark", &out.benchmark) &&
         readString(body, "workload", &out.workload) &&
         readNumber(body, "frontend", &out.ratios.frontend) &&
         readNumber(body, "backend", &out.ratios.backend) &&
         readNumber(body, "badspec", &out.ratios.badspec) &&
         readNumber(body, "retiring", &out.ratios.retiring) &&
         readUint(body, "uops", &out.uops) &&
         readUint(body, "checksum", &out.checksum);
    if (!ok)
        problems->push_back(cat("malformed run payload: ", line));
    return out;
}

} // namespace

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

Problems
checkTopdown(const TopdownRatios &r, const std::string &where)
{
    Problems problems;
    const double parts[] = {r.frontend, r.backend, r.badspec, r.retiring};
    double sum = 0.0;
    for (double p : parts) {
        if (!(p >= 0.0 && p <= 1.0))
            problems.push_back(
                cat(where, ": top-down fraction ", p, " outside [0, 1]"));
        sum += p;
    }
    if (!(std::fabs(sum - 1.0) <= kTolerance))
        problems.push_back(
            cat(where, ": top-down fractions sum to ", sum));
    return problems;
}

Problems
checkCoverage(const CoverageMap &coverage, const std::string &where)
{
    double sum = 0.0;
    for (const auto &[method, fraction] : coverage)
        sum += fraction;
    if (std::fabs(sum - 1.0) <= kTolerance)
        return {};
    return {cat(where, ": coverage sums to ", sum)};
}

double
referenceMuGV(std::span<const TopdownRatios> workloads)
{
    std::vector<double> variations;
    for (int k = 0; k < 4; ++k) {
        std::vector<double> series;
        for (const TopdownRatios &w : workloads) {
            const double v = k == 0   ? w.frontend
                             : k == 1 ? w.backend
                             : k == 2 ? w.badspec
                                      : w.retiring;
            series.push_back(std::max(v, 1e-4));
        }
        variations.push_back(variation(series));
    }
    return geomean(variations);
}

double
referenceMuGM(std::span<const CoverageMap> workloads)
{
    std::set<std::string> all;
    for (const CoverageMap &w : workloads)
        for (const auto &[method, fraction] : w)
            all.insert(method);
    std::vector<std::string> kept;
    for (const std::string &method : all) {
        for (const CoverageMap &w : workloads) {
            const auto it = w.find(method);
            if (it != w.end() && it->second * 100.0 >= 0.05) {
                kept.push_back(method);
                break;
            }
        }
    }
    const bool others = kept.size() < all.size();
    std::vector<double> variations;
    for (const std::string &method : kept) {
        std::vector<double> series;
        for (const CoverageMap &w : workloads) {
            const auto it = w.find(method);
            series.push_back((it == w.end() ? 0.0 : it->second * 100.0) +
                             0.01);
        }
        variations.push_back(variation(series));
    }
    if (others) {
        std::vector<double> series;
        for (const CoverageMap &w : workloads) {
            double rest = 0.0;
            for (const auto &[method, fraction] : w)
                if (!std::binary_search(kept.begin(), kept.end(), method))
                    rest += fraction * 100.0;
            series.push_back(std::max(rest, 0.0) + 0.01);
        }
        variations.push_back(variation(series));
    }
    return geomean(variations);
}

Problems
checkCharacterization(const alberta::core::Characterization &c)
{
    Problems problems;
    const std::size_t n = c.workloadNames.size();
    if (n == 0 || c.topdownPerWorkload.size() != n ||
        c.coveragePerWorkload.size() != n ||
        c.checksumPerWorkload.size() != n)
        return {cat(c.benchmark, ": per-workload arrays disagree")};
    for (std::size_t i = 0; i < n; ++i) {
        const std::string where = c.benchmark + "/" + c.workloadNames[i];
        for (auto &p : checkTopdown(c.topdownPerWorkload[i], where))
            problems.push_back(std::move(p));
        for (auto &p : checkCoverage(c.coveragePerWorkload[i], where))
            problems.push_back(std::move(p));
    }
    const double muGV = referenceMuGV(c.topdownPerWorkload);
    if (!close(c.topdown.muGV, muGV))
        problems.push_back(cat(c.benchmark, ": mu_g(V) ", c.topdown.muGV,
                               " != recomputed ", muGV));
    const double muGM = referenceMuGM(c.coveragePerWorkload);
    if (!close(c.coverage.muGM, muGM))
        problems.push_back(cat(c.benchmark, ": mu_g(M) ", c.coverage.muGM,
                               " != recomputed ", muGM));
    return problems;
}

Problems
checkSameRun(const alberta::runtime::RunMeasurement &expected,
             std::uint64_t checksum, std::uint64_t uops,
             const TopdownRatios &r, const std::string &where)
{
    Problems problems;
    if (checksum != expected.checksum)
        problems.push_back(cat(where, ": checksum ", checksum,
                               " != direct run ", expected.checksum));
    if (uops != expected.retiredOps)
        problems.push_back(cat(where, ": uops ", uops, " != direct run ",
                               expected.retiredOps));
    const TopdownRatios &e = expected.topdown;
    if (!sameBits(r.frontend, e.frontend) ||
        !sameBits(r.backend, e.backend) ||
        !sameBits(r.badspec, e.badspec) ||
        !sameBits(r.retiring, e.retiring))
        problems.push_back(
            cat(where, ": top-down fractions differ from the direct run"));
    return problems;
}

Problems
checkRunResponse(std::string_view line, std::uint64_t id,
                 const std::string &benchmark, const std::string &workload,
                 const alberta::runtime::RunMeasurement &expected)
{
    Problems problems;
    std::uint64_t gotId = 0;
    const RunPayload got = readRunResponse(line, &gotId, &problems);
    if (!problems.empty())
        return problems;
    const std::string where = benchmark + "/" + workload;
    if (gotId != id)
        problems.push_back(cat(where, ": response id ", gotId,
                               " answers request ", id));
    if (got.benchmark != benchmark || got.workload != workload)
        problems.push_back(cat(where, ": response is for ", got.benchmark,
                               "/", got.workload));
    for (auto &p : checkSameRun(expected, got.checksum, got.uops,
                                got.ratios, where))
        problems.push_back(std::move(p));
    return problems;
}

Problems
checkCrossValidation(const alberta::fdo::CrossValidation &cv)
{
    Problems problems;
    const auto positive = [&](double s, const std::string &what) {
        if (!(std::isfinite(s) && s > 0.0))
            problems.push_back(
                cat(cv.benchmark, ": ", what, " speedup ", s));
    };
    positive(cv.selfSpeedup, "self");
    positive(cv.refSpeedup, "refrate");
    if (cv.evalSpeedups.empty() ||
        cv.evalSpeedups.size() != cv.evalNames.size())
        problems.push_back(cat(cv.benchmark, ": no evaluation speedups"));
    for (std::size_t i = 0; i < cv.evalSpeedups.size(); ++i)
        positive(cv.evalSpeedups[i], cv.evalNames.at(i));
    if (!problems.empty())
        return problems;
    const double mean = geomean(cv.evalSpeedups);
    if (!close(cv.meanCross, mean))
        problems.push_back(cat(cv.benchmark, ": meanCross ", cv.meanCross,
                               " != recomputed geometric mean ", mean));
    return problems;
}

} // namespace perfbench
