#include "workload/trace.hh"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <memory>

#include "common/logging.hh"

namespace thermostat
{

namespace
{

constexpr char kMagic[8] = {'T', 'S', 'T', 'A',
                            'T', 'T', 'R', '1'};

struct FileCloser
{
    void
    operator()(std::FILE *file) const
    {
        if (file) {
            std::fclose(file);
        }
    }
};

using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

/** A whole recorded reference as a RefDraw token. */
RefDraw
drawOf(const TraceEntry &entry)
{
    RefDraw token{};
    token.value = entry.addr;
    token.within = entry.burstLines;
    token.write = entry.isWrite != 0;
    return token;
}

/** The references drawOf() stored. */
void
resolveWhole(std::span<const RefDraw> tokens, std::span<MemRef> refs)
{
    for (std::size_t i = 0; i < tokens.size(); ++i) {
        refs[i].addr = tokens[i].value;
        refs[i].burstLines = tokens[i].within;
        refs[i].type =
            tokens[i].write ? AccessType::Write : AccessType::Read;
    }
}

/** Fixed-size header; strings are written separately. */
struct TraceHeader
{
    char magic[8];
    std::uint32_t regionCount;
    std::uint32_t nameLength;
    std::uint64_t entryCount;
    double memRefRate;
    double cpuWorkFraction;
    std::uint64_t naturalDurationNs;
};

/** On-disk region record (name written separately). */
struct RegionRecord
{
    std::uint64_t bytes;
    std::uint64_t reserveBytes;
    std::uint32_t nameLength;
    std::uint8_t thp;
    std::uint8_t fileBacked;
    std::uint8_t pad[2];
};

bool
writeString(std::FILE *file, const std::string &s)
{
    return std::fwrite(s.data(), 1, s.size(), file) == s.size();
}

bool
readString(std::FILE *file, std::uint32_t length, std::string *out)
{
    out->resize(length);
    return std::fread(out->data(), 1, length, file) == length;
}

} // namespace

RecordingWorkload::RecordingWorkload(std::unique_ptr<Workload> inner)
    : inner_(std::move(inner))
{
    TSTAT_ASSERT(inner_ != nullptr, "RecordingWorkload without inner");
}

const std::string &
RecordingWorkload::name() const
{
    return inner_->name();
}

void
RecordingWorkload::setup(AddressSpace &space)
{
    inner_->setup(space);
    // Snapshot the region layout for the trace header so replay can
    // recreate the identical address space.
    regions_.clear();
    for (const Region &region : space.regions()) {
        RegionSpec spec;
        spec.name = region.name;
        spec.bytes = region.mappedBytes;
        spec.reserveBytes = region.reservedBytes;
        spec.thp = region.thp;
        spec.fileBacked = region.fileBacked;
        regions_.push_back(spec);
    }
}

void
RecordingWorkload::advance(Ns now, AddressSpace &space)
{
    inner_->advance(now, space);
}

void
RecordingWorkload::draw(Rng &rng, std::span<RefDraw> tokens)
{
    for (RefDraw &token : tokens) {
        const MemRef ref = inner_->sample(rng);
        TraceEntry entry;
        entry.addr = ref.addr;
        entry.burstLines = static_cast<std::uint16_t>(ref.burstLines);
        entry.isWrite = ref.type == AccessType::Write ? 1 : 0;
        entries_.push_back(entry);
        token = drawOf(entry);
    }
}

void
RecordingWorkload::resolve(std::span<const RefDraw> tokens,
                           std::span<MemRef> refs) const
{
    resolveWhole(tokens, refs);
}

double
RecordingWorkload::memRefRate() const
{
    return inner_->memRefRate();
}

double
RecordingWorkload::cpuWorkFraction() const
{
    return inner_->cpuWorkFraction();
}

Ns
RecordingWorkload::naturalDuration() const
{
    return inner_->naturalDuration();
}

bool
RecordingWorkload::save(const std::string &path) const
{
    FilePtr file(std::fopen(path.c_str(), "wb"));
    if (!file) {
        TSTAT_WARN("trace save: cannot open %s", path.c_str());
        return false;
    }
    TraceHeader header{};
    std::memcpy(header.magic, kMagic, sizeof(kMagic));
    header.regionCount =
        static_cast<std::uint32_t>(regions_.size());
    header.nameLength =
        static_cast<std::uint32_t>(inner_->name().size());
    header.entryCount = entries_.size();
    header.memRefRate = inner_->memRefRate();
    header.cpuWorkFraction = inner_->cpuWorkFraction();
    header.naturalDurationNs = inner_->naturalDuration();
    if (std::fwrite(&header, sizeof(header), 1, file.get()) != 1 ||
        !writeString(file.get(), inner_->name())) {
        return false;
    }
    for (const RegionSpec &spec : regions_) {
        RegionRecord record{};
        record.bytes = spec.bytes;
        record.reserveBytes = spec.reserveBytes;
        record.nameLength =
            static_cast<std::uint32_t>(spec.name.size());
        record.thp = spec.thp ? 1 : 0;
        record.fileBacked = spec.fileBacked ? 1 : 0;
        if (std::fwrite(&record, sizeof(record), 1, file.get()) !=
                1 ||
            !writeString(file.get(), spec.name)) {
            return false;
        }
    }
    if (!entries_.empty() &&
        std::fwrite(entries_.data(), sizeof(TraceEntry),
                    entries_.size(),
                    file.get()) != entries_.size()) {
        return false;
    }
    return true;
}

namespace
{

/** Build the diagnostic, warn, and hand it to the caller. */
void
loadError(std::string *error, const std::string &path,
          const std::string &reason)
{
    const std::string message =
        "trace load: " + reason + " in " + path;
    TSTAT_WARN("%s", message.c_str());
    if (error != nullptr) {
        *error = message;
    }
}

} // namespace

std::unique_ptr<TraceWorkload>
TraceWorkload::load(const std::string &path, std::string *error)
{
    errno = 0;
    FilePtr file(std::fopen(path.c_str(), "rb"));
    if (!file) {
        loadError(error, path,
                  std::string("cannot open (errno ") +
                      std::to_string(errno) + ", " +
                      std::strerror(errno) + ")");
        return nullptr;
    }
    TraceHeader header{};
    if (std::fread(&header, sizeof(header), 1, file.get()) != 1 ||
        std::memcmp(header.magic, kMagic, sizeof(kMagic)) != 0) {
        loadError(error, path, "bad header");
        return nullptr;
    }
    auto trace = std::unique_ptr<TraceWorkload>(new TraceWorkload());
    if (!readString(file.get(), header.nameLength, &trace->name_)) {
        loadError(error, path, "truncated workload name");
        return nullptr;
    }
    trace->memRefRate_ = header.memRefRate;
    trace->cpuWorkFraction_ = header.cpuWorkFraction;
    trace->naturalDuration_ = header.naturalDurationNs;
    for (std::uint32_t i = 0; i < header.regionCount; ++i) {
        RegionRecord record{};
        RegionSpec spec;
        if (std::fread(&record, sizeof(record), 1, file.get()) !=
                1 ||
            !readString(file.get(), record.nameLength,
                        &spec.name)) {
            loadError(error, path, "truncated region record");
            return nullptr;
        }
        spec.bytes = record.bytes;
        spec.reserveBytes = record.reserveBytes;
        spec.thp = record.thp != 0;
        spec.fileBacked = record.fileBacked != 0;
        trace->regions_.push_back(spec);
    }
    trace->entries_.resize(header.entryCount);
    if (header.entryCount != 0 &&
        std::fread(trace->entries_.data(), sizeof(TraceEntry),
                   trace->entries_.size(),
                   file.get()) != trace->entries_.size()) {
        loadError(error, path, "truncated entries");
        return nullptr;
    }
    return trace;
}

void
TraceWorkload::setup(AddressSpace &space)
{
    // Recreate the recorded layout; bump allocation makes the bases
    // identical, so recorded absolute addresses remain valid.
    for (const RegionSpec &spec : regions_) {
        space.mapRegion(spec.name, spec.bytes, spec.reserveBytes,
                        spec.thp, spec.fileBacked);
    }
}

void
TraceWorkload::advance(Ns now, AddressSpace &space)
{
    (void)now;
    (void)space;
}

void
TraceWorkload::draw(Rng &rng, std::span<RefDraw> tokens)
{
    (void)rng;
    TSTAT_ASSERT(!entries_.empty(), "empty trace");
    for (RefDraw &token : tokens) {
        token = drawOf(entries_[cursor_]);
        cursor_ = (cursor_ + 1) % entries_.size();
    }
}

void
TraceWorkload::resolve(std::span<const RefDraw> tokens,
                       std::span<MemRef> refs) const
{
    resolveWhole(tokens, refs);
}

} // namespace thermostat
