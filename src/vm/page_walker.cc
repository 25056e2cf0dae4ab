#include "vm/page_walker.hh"

#include <cmath>

namespace thermostat
{

PageWalker::PageWalker(const WalkerConfig &config)
    : config_(config)
{
    // The cost model is pure config arithmetic; evaluate it once so
    // walks pay a table load instead of floating-point math.
    for (const bool huge : {false, true}) {
        const bool native = config_.mode == PagingMode::Native;
        accesses_[huge] =
            native ? (huge ? config_.native2MAccesses
                           : config_.native4KAccesses)
                   : (huge ? config_.nested2MAccesses
                           : config_.nested4KAccesses);
        const double factor = huge ? config_.walkCacheFactor2M
                                   : config_.walkCacheFactor4K;
        latency_[huge] = static_cast<Ns>(std::llround(
            static_cast<double>(accesses_[huge]) * factor *
            static_cast<double>(config_.tableAccessLatency)));
    }
}

} // namespace thermostat
