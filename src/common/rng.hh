/**
 * @file
 * Deterministic random number generation for the simulator.
 *
 * Every stochastic component (workload generators, the Thermostat
 * sampler, cache/TLB replacement tie-breaks) owns its own Rng stream
 * seeded from a single experiment seed, so runs are reproducible and
 * components do not perturb each other's streams.
 *
 * The core generator is xoshiro256** (Blackman & Vigna), seeded via
 * SplitMix64, both public domain algorithms.
 */

#ifndef THERMOSTAT_COMMON_RNG_HH
#define THERMOSTAT_COMMON_RNG_HH

#include <array>
#include <cstdint>
#include <vector>

#include "common/logging.hh"

namespace thermostat
{

/** SplitMix64 step; used for seeding and cheap hashing. */
constexpr std::uint64_t
splitMix64(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/**
 * xoshiro256** pseudo random generator.
 *
 * Satisfies UniformRandomBitGenerator so it can also drive <random>
 * distributions where convenient.
 */
class Rng
{
  public:
    using result_type = std::uint64_t;

    /** Construct from a 64-bit seed (expanded via SplitMix64). */
    explicit Rng(std::uint64_t seed = 0x5eedULL);

    /** Derive an independent child stream (for a sub-component). */
    Rng fork();

    /**
     * Next raw 64 random bits.  Inline (as are the derived draws
     * below): workload generators call these several times per
     * synthesized memory reference.
     */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const std::uint64_t t = state_[1] << 17;

        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);

        return result;
    }

    std::uint64_t operator()() { return next(); }

    static constexpr std::uint64_t min() { return 0; }
    static constexpr std::uint64_t max() { return ~0ULL; }

    /** Uniform integer in [0, bound); bound must be nonzero. */
    std::uint64_t
    nextBounded(std::uint64_t bound)
    {
        TSTAT_ASSERT(bound != 0, "nextBounded(0)");
        // Lemire-style rejection to remove modulo bias.
        const std::uint64_t threshold = (-bound) % bound;
        for (;;) {
            const std::uint64_t r = next();
            if (r >= threshold) {
                return r % bound;
            }
        }
    }

    /** Uniform integer in [lo, hi] inclusive. */
    std::uint64_t
    nextRange(std::uint64_t lo, std::uint64_t hi)
    {
        TSTAT_ASSERT(lo <= hi, "nextRange: lo > hi");
        return lo + nextBounded(hi - lo + 1);
    }

    /** Uniform double in [0, 1). */
    double nextDouble() { return unitDouble(next()); }

    /** The double nextDouble() makes of the raw draw @p bits. */
    static double
    unitDouble(std::uint64_t bits)
    {
        return static_cast<double>(bits >> 11) * 0x1.0p-53;
    }

    /** Bernoulli trial with probability @p p of true. */
    bool nextBool(double p) { return nextDouble() < p; }

    /**
     * Sample @p k distinct indices from [0, n) without replacement
     * (Floyd's algorithm); returns fewer when k > n.
     */
    std::vector<std::uint64_t> sampleWithoutReplacement(std::uint64_t n,
                                                        std::uint64_t k);

    /** Fisher-Yates shuffle of an index vector. */
    template <typename T>
    void
    shuffle(std::vector<T> &v)
    {
        for (std::size_t i = v.size(); i > 1; --i) {
            const std::size_t j =
                static_cast<std::size_t>(nextBounded(i));
            std::swap(v[i - 1], v[j]);
        }
    }

  private:
    static constexpr std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::array<std::uint64_t, 4> state_;
};

/**
 * Repeated uniform draws in [0, bound) with the Lemire rejection
 * threshold (`(-bound) % bound`, one 64-bit division) hoisted to
 * construction.  The draw sequence and results are identical to
 * calling Rng::nextBounded(bound) each time; patterns that draw
 * against a fixed bound on every reference use this to halve the
 * division count per draw.
 */
class BoundedDraw
{
  public:
    BoundedDraw() = default;

    explicit BoundedDraw(std::uint64_t bound)
        : bound_(bound), threshold_((-bound) % bound)
    {
        TSTAT_ASSERT(bound != 0, "BoundedDraw(0)");
    }

    std::uint64_t bound() const { return bound_; }

    std::uint64_t operator()(Rng &rng) const { return reduce(raw(rng)); }

    /**
     * The accepted raw draw, before its reduction: consumes @p rng
     * exactly as operator() does, with no division.
     */
    std::uint64_t
    raw(Rng &rng) const
    {
        for (;;) {
            const std::uint64_t r = rng.next();
            if (r >= threshold_) {
                return r;
            }
        }
    }

    /** The value operator() returns for the raw draw @p r. */
    std::uint64_t
    reduce(std::uint64_t r) const
    {
        return r % bound_;
    }

  private:
    std::uint64_t bound_ = 1;
    std::uint64_t threshold_ = 0;
};

/**
 * Zipfian sampler over [0, n) with parameter theta, using the
 * Gray-et-al. (YCSB) rejection-free method.  Item 0 is the most
 * popular.  theta in (0, 1) matches YCSB's default skew regime.
 */
class ZipfSampler
{
  public:
    ZipfSampler(std::uint64_t n, double theta);

    /** Draw one item; item 0 is hottest. */
    std::uint64_t
    sample(Rng &rng) const
    {
        return rankAt(rng.nextDouble());
    }

    /** The item sample() returns for the uniform draw @p u. */
    std::uint64_t rankAt(double u) const;

    std::uint64_t itemCount() const { return n_; }
    double theta() const { return theta_; }

    /** Exact popularity of item @p rank (probability mass). */
    double popularity(std::uint64_t rank) const;

  private:
    static double zeta(std::uint64_t n, double theta);

    std::uint64_t n_;
    double theta_;
    double zetaN_;
    double zeta2_;
    double alpha_;
    double eta_;
    double halfPowTheta_; //!< pow(0.5, theta), hoisted out of sample()
};

} // namespace thermostat

#endif // THERMOSTAT_COMMON_RNG_HH
