#include "common/stats.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <sstream>

#include "common/logging.hh"

namespace thermostat
{

void
MeanAccumulator::add(double x)
{
    ++count_;
    sum_ += x;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
    if (count_ == 1) {
        min_ = max_ = x;
    } else {
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }
}

void
MeanAccumulator::reset()
{
    *this = MeanAccumulator();
}

double
MeanAccumulator::variance() const
{
    if (count_ < 2) {
        return 0.0;
    }
    return m2_ / static_cast<double>(count_ - 1);
}

double
MeanAccumulator::stddev() const
{
    return std::sqrt(variance());
}

Log2Histogram::Log2Histogram()
    : buckets_(65, 0)
{
}

void
Log2Histogram::add(std::uint64_t value, std::uint64_t weight)
{
    const unsigned idx =
        value <= 1 ? 0 : static_cast<unsigned>(std::bit_width(value));
    buckets_[std::min<unsigned>(idx, 64)] += weight;
    samples_ += weight;
}

void
Log2Histogram::reset()
{
    std::fill(buckets_.begin(), buckets_.end(), 0);
    samples_ = 0;
}

std::uint64_t
Log2Histogram::bucket(unsigned i) const
{
    TSTAT_ASSERT(i < buckets_.size(), "histogram bucket out of range");
    return buckets_[i];
}

std::uint64_t
Log2Histogram::percentile(double fraction) const
{
    if (samples_ == 0) {
        return 0;
    }
    fraction = std::clamp(fraction, 0.0, 1.0);
    const auto target = static_cast<std::uint64_t>(
        std::ceil(fraction * static_cast<double>(samples_)));
    std::uint64_t seen = 0;
    for (unsigned i = 0; i < buckets_.size(); ++i) {
        seen += buckets_[i];
        if (seen >= target) {
            return i == 0 ? 1 : (std::uint64_t{1} << i) - 1;
        }
    }
    return ~std::uint64_t{0};
}

std::string
Log2Histogram::toString() const
{
    std::ostringstream os;
    for (unsigned i = 0; i < buckets_.size(); ++i) {
        if (buckets_[i] == 0) {
            continue;
        }
        const std::uint64_t lo = i == 0 ? 0 : std::uint64_t{1} << (i - 1);
        const std::uint64_t hi =
            i == 0 ? 1 : (std::uint64_t{1} << i) - 1;
        os << lo << ".." << hi << ": " << buckets_[i] << "\n";
    }
    return os.str();
}

TimeSeries::TimeSeries(std::string name)
    : name_(std::move(name))
{
}

void
TimeSeries::append(Ns time, double value)
{
    if (!samples_.empty() && time < samples_.back().time) {
        TSTAT_PANIC("TimeSeries '%s': non-monotonic append",
                    name_.c_str());
    }
    samples_.push_back({time, value});
}

double
TimeSeries::minValue() const
{
    double v = samples_.empty() ? 0.0 : samples_.front().value;
    for (const auto &s : samples_) {
        v = std::min(v, s.value);
    }
    return v;
}

double
TimeSeries::maxValue() const
{
    double v = samples_.empty() ? 0.0 : samples_.front().value;
    for (const auto &s : samples_) {
        v = std::max(v, s.value);
    }
    return v;
}

double
TimeSeries::meanValue() const
{
    if (samples_.empty()) {
        return 0.0;
    }
    double sum = 0.0;
    for (const auto &s : samples_) {
        sum += s.value;
    }
    return sum / static_cast<double>(samples_.size());
}

double
TimeSeries::lastValue() const
{
    return samples_.empty() ? 0.0 : samples_.back().value;
}

TimeSeries
TimeSeries::windowAverage(Ns window) const
{
    TimeSeries out(name_ + ".avg");
    if (samples_.empty()) {
        return out;
    }
    if (window == 0) {
        // Degenerate window: every sample is its own bucket, so the
        // average is the series itself (just renamed).
        for (const auto &s : samples_) {
            out.append(s.time, s.value);
        }
        return out;
    }
    std::size_t i = 0;
    while (i < samples_.size()) {
        const Ns win_start = samples_[i].time / window * window;
        const Ns win_end = win_start + window;
        double sum = 0.0;
        std::size_t n = 0;
        while (i < samples_.size() && samples_[i].time < win_end) {
            sum += samples_[i].value;
            ++n;
            ++i;
        }
        out.append(win_start + window / 2,
                   sum / static_cast<double>(n));
    }
    return out;
}

std::string
TimeSeries::toCsv() const
{
    std::ostringstream os;
    os << "time_sec," << (name_.empty() ? "value" : name_) << "\n";
    for (const auto &s : samples_) {
        os << static_cast<double>(s.time) / kNsPerSec << ","
           << s.value << "\n";
    }
    return os.str();
}

void
RateMeter::record(Ns now, Count events)
{
    if (!started_) {
        if (!windowAnchored_) {
            windowStart_ = now;
            windowAnchored_ = true;
        }
        started_ = true;
    }
    total_ += events;
    windowEvents_ += events;
}

void
RateMeter::reset()
{
    *this = RateMeter();
}

double
RateMeter::takeWindowRate(Ns now)
{
    if (!started_) {
        // No events yet: anchor the checkpoint here so the first
        // real window spans [now, next take] instead of starting at
        // the first event, which would overstate the rate.
        windowStart_ = now;
        windowAnchored_ = true;
        return 0.0;
    }
    if (now <= windowStart_) {
        // Zero-length (or backwards) window: no time has passed.
        // Keep pending events for the next real window.
        return 0.0;
    }
    const double rate = static_cast<double>(windowEvents_) * kNsPerSec /
                        static_cast<double>(now - windowStart_);
    windowStart_ = now;
    windowEvents_ = 0;
    return rate;
}

} // namespace thermostat
