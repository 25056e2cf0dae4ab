#include "common/rng.hh"

#include <cmath>

#include "common/logging.hh"

namespace thermostat
{

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t sm = seed;
    for (auto &word : state_) {
        word = splitMix64(sm);
    }
}

Rng
Rng::fork()
{
    return Rng(next() ^ 0xa5a5a5a5deadbeefULL);
}

std::vector<std::uint64_t>
Rng::sampleWithoutReplacement(std::uint64_t n, std::uint64_t k)
{
    std::vector<std::uint64_t> out;
    if (k >= n) {
        out.reserve(n);
        for (std::uint64_t i = 0; i < n; ++i) {
            out.push_back(i);
        }
        return out;
    }
    out.reserve(k);
    // Floyd's algorithm: O(k) draws, distinct by construction.
    for (std::uint64_t j = n - k; j < n; ++j) {
        const std::uint64_t t = nextBounded(j + 1);
        bool seen = false;
        for (const std::uint64_t v : out) {
            if (v == t) {
                seen = true;
                break;
            }
        }
        out.push_back(seen ? j : t);
    }
    return out;
}

double
ZipfSampler::zeta(std::uint64_t n, double theta)
{
    double sum = 0.0;
    for (std::uint64_t i = 1; i <= n; ++i) {
        sum += 1.0 / std::pow(static_cast<double>(i), theta);
    }
    return sum;
}

ZipfSampler::ZipfSampler(std::uint64_t n, double theta)
    : n_(n), theta_(theta)
{
    TSTAT_ASSERT(n > 0, "ZipfSampler over empty domain");
    TSTAT_ASSERT(theta > 0.0 && theta < 1.0,
                 "ZipfSampler theta must be in (0,1)");
    zetaN_ = zeta(n_, theta_);
    zeta2_ = zeta(2, theta_);
    alpha_ = 1.0 / (1.0 - theta_);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n_), 1.0 - theta_)) /
           (1.0 - zeta2_ / zetaN_);
    halfPowTheta_ = std::pow(0.5, theta_);
}

std::uint64_t
ZipfSampler::rankAt(double u) const
{
    const double uz = u * zetaN_;
    if (uz < 1.0) {
        return 0;
    }
    if (uz < 1.0 + halfPowTheta_) {
        return 1;
    }
    const auto idx = static_cast<std::uint64_t>(
        static_cast<double>(n_) *
        std::pow(eta_ * u - eta_ + 1.0, alpha_));
    return idx >= n_ ? n_ - 1 : idx;
}

double
ZipfSampler::popularity(std::uint64_t rank) const
{
    TSTAT_ASSERT(rank < n_, "popularity rank out of range");
    return 1.0 /
           (std::pow(static_cast<double>(rank + 1), theta_) * zetaN_);
}

} // namespace thermostat
