#include "workload/access_pattern.hh"

#include <algorithm>

#include "common/logging.hh"

namespace thermostat
{

MemoizedPermutation::MemoizedPermutation(std::uint64_t size,
                                         std::uint64_t seed,
                                         std::uint64_t hot_indices)
    : perm_(size, seed),
      slots_(size < (std::uint64_t{1} << 32)
                 ? std::min({hot_indices, size, kMaxSlots})
                 : 0)
{
}

UniformPattern::UniformPattern(std::uint64_t span_bytes)
    : spanBytes_(span_bytes), draw_(span_bytes)
{
    TSTAT_ASSERT(span_bytes > 0, "UniformPattern: empty span");
}

std::uint64_t
UniformPattern::next(Rng &rng)
{
    return draw_(rng);
}

ZipfianPattern::ZipfianPattern(std::uint64_t span_bytes,
                               std::uint64_t object_bytes, double theta,
                               bool scatter, std::uint64_t seed)
    : spanBytes_(span_bytes),
      objectBytes_(object_bytes),
      zipf_(std::max<std::uint64_t>(1, span_bytes / object_bytes),
            theta),
      scatter_(scatter),
      slots_(zipf_.itemCount(), seed, scatter ? zipf_.itemCount() : 0)
{
    TSTAT_ASSERT(object_bytes > 0 && span_bytes >= object_bytes,
                 "ZipfianPattern: bad geometry");
    if (objectBytes_ > 64) {
        withinDraw_ = BoundedDraw(objectBytes_ / 64);
    }
}

std::uint64_t
ZipfianPattern::slotForRank(std::uint64_t rank) const
{
    return scatter_ ? slots_.permutation().map(rank) : rank;
}

std::uint64_t
ZipfianPattern::next(Rng &rng)
{
    const std::uint64_t rank = zipf_.sample(rng);
    const std::uint64_t slot = scatter_ ? slots_.map(rank) : rank;
    const std::uint64_t within =
        objectBytes_ <= 64 ? 0 : withinDraw_(rng) * 64;
    return std::min(slot * objectBytes_ + within, spanBytes_ - 1);
}

HotspotPattern::HotspotPattern(std::uint64_t span_bytes,
                               std::uint64_t object_bytes,
                               double hot_fraction, double hot_traffic,
                               bool scatter, std::uint64_t seed)
    : spanBytes_(span_bytes),
      objectBytes_(object_bytes),
      objectCount_(std::max<std::uint64_t>(1,
                                           span_bytes / object_bytes)),
      hotObjects_(std::max<std::uint64_t>(
          1, static_cast<std::uint64_t>(
                 static_cast<double>(objectCount_) * hot_fraction))),
      hotTraffic_(hot_traffic),
      scatter_(scatter),
      slots_(objectCount_, seed, scatter ? hotObjects_ : 0)
{
    TSTAT_ASSERT(hot_fraction > 0.0 && hot_fraction <= 1.0,
                 "HotspotPattern: bad hot fraction");
    TSTAT_ASSERT(hot_traffic >= 0.0 && hot_traffic <= 1.0,
                 "HotspotPattern: bad hot traffic");
    hotDraw_ = BoundedDraw(hotObjects_);
    anyDraw_ = BoundedDraw(objectCount_);
    if (objectBytes_ > 64) {
        withinDraw_ = BoundedDraw(objectBytes_ / 64);
    }
}

std::uint64_t
HotspotPattern::next(Rng &rng)
{
    std::uint64_t index;
    if (rng.nextBool(hotTraffic_)) {
        index = hotDraw_(rng);
    } else {
        index = anyDraw_(rng);
    }
    const std::uint64_t slot = scatter_ ? slots_.map(index) : index;
    const std::uint64_t within =
        objectBytes_ <= 64 ? 0 : withinDraw_(rng) * 64;
    return std::min(slot * objectBytes_ + within, spanBytes_ - 1);
}

SequentialScanPattern::SequentialScanPattern(std::uint64_t span_bytes,
                                             std::uint64_t stride_bytes)
    : spanBytes_(span_bytes), strideBytes_(stride_bytes)
{
    TSTAT_ASSERT(span_bytes > 0, "SequentialScanPattern: empty span");
    TSTAT_ASSERT(stride_bytes > 0,
                 "SequentialScanPattern: zero stride");
}

std::uint64_t
SequentialScanPattern::next(Rng &)
{
    const std::uint64_t offset = cursor_;
    cursor_ += strideBytes_;
    if (cursor_ >= spanBytes_) {
        cursor_ = 0;
    }
    return offset;
}

void
SequentialScanPattern::setSpanBytes(std::uint64_t bytes)
{
    spanBytes_ = bytes;
    if (cursor_ >= spanBytes_) {
        cursor_ = 0;
    }
}

RecentWindowPattern::RecentWindowPattern(std::uint64_t span_bytes,
                                         std::uint64_t window_bytes)
    : spanBytes_(span_bytes),
      windowBytes_(window_bytes),
      windowDraw_(window_bytes < span_bytes ? window_bytes
                                            : span_bytes)
{
    TSTAT_ASSERT(span_bytes > 0, "RecentWindowPattern: empty span");
    TSTAT_ASSERT(window_bytes > 0,
                 "RecentWindowPattern: empty window");
}

std::uint64_t
RecentWindowPattern::next(Rng &rng)
{
    return spanBytes_ - windowDraw_.bound() + windowDraw_(rng);
}

OffsetPattern::OffsetPattern(std::uint64_t offset_bytes,
                             std::unique_ptr<AccessPattern> inner)
    : offsetBytes_(offset_bytes), inner_(std::move(inner))
{
    TSTAT_ASSERT(inner_ != nullptr, "OffsetPattern without inner");
}

std::uint64_t
OffsetPattern::next(Rng &rng)
{
    return offsetBytes_ + inner_->next(rng);
}

std::uint64_t
OffsetPattern::spanBytes() const
{
    return offsetBytes_ + inner_->spanBytes();
}

void
OffsetPattern::setSpanBytes(std::uint64_t bytes)
{
    if (bytes > offsetBytes_) {
        inner_->setSpanBytes(bytes - offsetBytes_);
    }
}

void
OffsetPattern::advance(Ns now)
{
    inner_->advance(now);
}

PhaseShiftPattern::PhaseShiftPattern(
    std::unique_ptr<AccessPattern> inner, Ns phase_period,
    std::uint64_t shift_bytes, std::uint64_t wrap_bytes)
    : inner_(std::move(inner)),
      phasePeriod_(phase_period),
      shiftBytes_(shift_bytes),
      wrapBytes_(wrap_bytes)
{
    TSTAT_ASSERT(phasePeriod_ > 0, "PhaseShiftPattern: zero period");
    TSTAT_ASSERT(wrapBytes_ >= inner_->spanBytes(),
                 "PhaseShiftPattern: wrap smaller than inner span");
}

std::uint64_t
PhaseShiftPattern::next(Rng &rng)
{
    const std::uint64_t raw = inner_->next(rng);
    return (raw + static_cast<std::uint64_t>(phaseIndex_) *
                      shiftBytes_) %
           wrapBytes_;
}

void
PhaseShiftPattern::advance(Ns now)
{
    inner_->advance(now);
    phaseIndex_ = static_cast<unsigned>(now / phasePeriod_);
}

} // namespace thermostat
