#include "core/result_store.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cerrno>
#include <csignal>
#include <fstream>
#include <type_traits>
#include <utility>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/error.hpp"
#include "common/faultpoint.hpp"
#include "core/circuit_digest.hpp"
#include "core/export.hpp"

namespace qccd
{

namespace
{

/** Little-endian emit helpers (the store's only byte order). @{ */
void
putU32(std::string &out, uint32_t value)
{
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<char>(value >> (8 * i)));
}

void
putU64(std::string &out, uint64_t value)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<char>(value >> (8 * i)));
}

void
putI64(std::string &out, int64_t value)
{
    putU64(out, static_cast<uint64_t>(value));
}

void
putF64(std::string &out, double value)
{
    putU64(out, std::bit_cast<uint64_t>(value));
}
/** @} */

/** Little-endian integer at @p at of @p bytes (bounds checked by the
 *  caller). */
template <typename T>
T
loadLe(std::string_view bytes, size_t at)
{
    T value = 0;
    for (size_t i = 0; i < sizeof(T); ++i)
        value |= static_cast<T>(static_cast<unsigned char>(bytes[at + i]))
                 << (8 * i);
    return value;
}

/** Bounds-checked little-endian reader over payload bytes. */
class ByteReader
{
  public:
    explicit ByteReader(std::string_view bytes) : bytes_(bytes) {}

    bool ok() const { return ok_; }
    bool done() const { return ok_ && pos_ == bytes_.size(); }

    uint32_t u32() { return take(4) ? loadLe<uint32_t>(bytes_, pos_ - 4) : 0; }
    uint64_t u64() { return take(8) ? loadLe<uint64_t>(bytes_, pos_ - 8) : 0; }
    int64_t i64() { return static_cast<int64_t>(u64()); }
    double f64() { return std::bit_cast<double>(u64()); }
    int32_t i32() { return static_cast<int32_t>(u32()); }

  private:
    bool take(size_t n)
    {
        if (!ok_ || bytes_.size() - pos_ < n) {
            ok_ = false;
            return false;
        }
        pos_ += n;
        return true;
    }

    std::string_view bytes_;
    size_t pos_ = 0;
    bool ok_ = true;
};

/**
 * Call @p f on every field of @p result (const or not) in payload
 * order, which is declaration order: a double is stored as f64, a long
 * as i64 and an int as u32. The bindings name every data member, so a
 * new field breaks the build until it is placed here and
 * kSchemaVersion is bumped.
 */
template <typename Result, typename Fn>
void
forEachStoredField(Result &result, Fn &&f)
{
    auto &[sim, compute_only] = result;
    auto &[makespan, log_fidelity, zero_fidelity_ops, counts, max_energy,
           background, motional, compute_busy, comm_busy, buffer] = sim;
    auto &[algorithm_ms, reorder_ms, one_qubit, measurements, splits,
           merges, moves, segments, junctions, rotations, transits,
           shuttles, evictions, pass_throughs] = counts;
    const auto each = [&f](auto &...field) { (f(field), ...); };
    each(makespan, log_fidelity, zero_fidelity_ops, algorithm_ms,
         reorder_ms, one_qubit, measurements, splits, merges, moves,
         segments, junctions, rotations, transits, shuttles, evictions,
         pass_throughs, max_energy, background, motional, compute_busy,
         comm_busy, buffer, compute_only);
}

/** How readRegularFile() ended. */
enum class ReadStatus
{
    Ok,
    Missing,    ///< the path does not exist (ENOENT)
    NotRegular, ///< a directory, device, FIFO, ...
    Failed      ///< any other open, fstat or read error
};

/**
 * Read the whole of regular file @p path into @p out with one open, one
 * fstat and one read into a buffer sized once. A file that shrinks
 * under the read yields the bytes that remain; one that grows yields
 * the bytes fstat saw.
 */
ReadStatus
readRegularFile(const std::string &path, std::string *out)
{
    // O_NONBLOCK: a FIFO swapped in after a caller's stat must not
    // block the open; it has no effect on a regular file.
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC | O_NONBLOCK);
    if (fd < 0)
        return errno == ENOENT ? ReadStatus::Missing : ReadStatus::Failed;
    ReadStatus status = ReadStatus::Ok;
    struct stat info {};
    if (::fstat(fd, &info) != 0) {
        status = ReadStatus::Failed;
    } else if (!S_ISREG(info.st_mode)) {
        status = ReadStatus::NotRegular;
    } else {
        out->resize(static_cast<size_t>(info.st_size));
        size_t got = 0;
        while (got < out->size()) {
            const ssize_t n =
                ::read(fd, out->data() + got, out->size() - got);
            if (n > 0)
                got += static_cast<size_t>(n);
            else if (n == 0)
                break;
            else if (errno != EINTR) {
                status = ReadStatus::Failed;
                break;
            }
        }
        out->resize(got);
    }
    ::close(fd);
    return status;
}

[[noreturn]] void
throwNotRegular(const std::string &path)
{
    throw ConfigError("result cache '" + path + "' is not a regular file");
}

/** First bytes of a corrupt region as hex, for the quarantine line. */
std::string
hexPrefix(std::string_view bytes, size_t offset, size_t length)
{
    static const char digits[] = "0123456789abcdef";
    const size_t n = std::min<size_t>(length, 16);
    std::string out;
    for (size_t i = 0; i < n && offset + i < bytes.size(); ++i) {
        const auto b = static_cast<unsigned char>(bytes[offset + i]);
        out.push_back(digits[b >> 4]);
        out.push_back(digits[b & 0xF]);
    }
    return out;
}

constexpr size_t kFrameOverhead = 12; // u32 length + u64 checksum
constexpr size_t kFrameSize = kFrameOverhead + ResultStore::kPayloadSize;

/** Records whose checksums one pass of fnv1a64Lanes() folds. */
constexpr size_t kChecksumLanes = 4;

/**
 * fnv1a64 of kChecksumLanes payloads of kPayloadSize bytes each,
 * folded in lockstep. Each chain is a run of dependent multiplies;
 * interleaving independent chains overlaps them. Every value equals
 * the serial fnv1a64 of its payload.
 */
std::array<uint64_t, kChecksumLanes>
fnv1a64Lanes(const std::array<const char *, kChecksumLanes> &payloads)
{
    std::array<uint64_t, kChecksumLanes> state;
    state.fill(kFnvOffsetBasis);
    for (size_t i = 0; i < ResultStore::kPayloadSize; ++i)
        for (size_t lane = 0; lane < kChecksumLanes; ++lane)
            state[lane] = hash_detail::fnvFold(
                state[lane],
                static_cast<unsigned char>(payloads[lane][i]));
    return state;
}

} // namespace

const char *
ResultStore::magic()
{
    // 8 bytes; the \n catches text-mode transfer mangling like the
    // PNG magic does.
    return "qccdRES\n";
}

std::string
ResultStore::freshHeader()
{
    std::string header(magic(), kMagicSize);
    putU32(header, kSchemaVersion);
    putU32(header, 0);
    return header;
}

ResultStoreScan
scanResultStore(std::string_view bytes)
{
    ResultStoreScan scan;
    scan.tornTailOffset = bytes.size();

    const std::string header = ResultStore::freshHeader();
    const std::string_view magic(ResultStore::magic(),
                                 ResultStore::kMagicSize);
    if (bytes.size() < ResultStore::kHeaderSize) {
        // A file shorter than the header is healable only when it is
        // a prefix of a legitimate creation (torn first write);
        // anything else is some other file handed to us by mistake.
        scan.headerTorn = header.starts_with(bytes) ||
                          bytes.starts_with(magic);
        scan.magicOk = bytes.size() >= ResultStore::kMagicSize &&
                       scan.headerTorn;
        return scan;
    }

    scan.magicOk = bytes.starts_with(magic);
    if (!scan.magicOk)
        return scan;
    scan.version = loadLe<uint32_t>(bytes, ResultStore::kMagicSize);
    scan.versionOk = scan.version == ResultStore::kSchemaVersion;
    if (!scan.versionOk)
        return scan; // foreign layout: nothing else is knowable

    // Frame: every version-1 record has the same size, so the whole
    // records are the first `framed` frames after the header.
    size_t framed = 0;
    std::optional<ResultStoreDefect> frame_defect;
    for (size_t offset = ResultStore::kHeaderSize; offset < bytes.size();
         offset += kFrameSize, ++framed) {
        const size_t remaining = bytes.size() - offset;
        if (remaining < kFrameOverhead) {
            scan.truncatedTail = true;
            scan.tornTailOffset = offset;
            break;
        }
        if (loadLe<uint32_t>(bytes, offset) != ResultStore::kPayloadSize) {
            // Impossible framing: record boundaries downstream are
            // unknowable, so the whole rest of the file is one defect.
            frame_defect = ResultStoreDefect{offset, remaining, "frame"};
            scan.tornTailOffset = offset;
            break;
        }
        if (remaining < kFrameSize) {
            scan.truncatedTail = true;
            scan.tornTailOffset = offset;
            break;
        }
    }

    // Verify in place, kChecksumLanes records per fold, in file order.
    scan.records.reserve(framed);
    const auto verdict = [&](size_t index, uint64_t sum) {
        const size_t offset = ResultStore::kHeaderSize + index * kFrameSize;
        if (sum != loadLe<uint64_t>(bytes, offset + 4)) {
            scan.defects.push_back({offset, kFrameSize, "checksum"});
            return;
        }
        const std::string_view payload =
            bytes.substr(offset + kFrameOverhead, ResultStore::kPayloadSize);
        scan.records.push_back(
            {offset,
             Digest128{loadLe<uint64_t>(payload, 0),
                       loadLe<uint64_t>(payload, 8)},
             payload});
    };
    const auto payloadAt = [&](size_t index) {
        return bytes.data() + ResultStore::kHeaderSize + index * kFrameSize +
               kFrameOverhead;
    };
    size_t index = 0;
    for (; index + kChecksumLanes <= framed; index += kChecksumLanes) {
        std::array<const char *, kChecksumLanes> payloads;
        for (size_t lane = 0; lane < kChecksumLanes; ++lane)
            payloads[lane] = payloadAt(index + lane);
        const std::array<uint64_t, kChecksumLanes> sums =
            fnv1a64Lanes(payloads);
        for (size_t lane = 0; lane < kChecksumLanes; ++lane)
            verdict(index + lane, sums[lane]);
    }
    for (; index < framed; ++index)
        verdict(index, fnv1a64(payloadAt(index), ResultStore::kPayloadSize));
    if (frame_defect.has_value())
        scan.defects.push_back(std::move(*frame_defect));
    return scan;
}

ResultStore::ResultStore(const std::string &path)
    : path_(path), lockPath_(path + ".lock")
{
    QCCD_FAULT_POINT("cache.open");
    // Refused before the lock is taken, so a refusal leaves nothing
    // behind. Only a regular file can be healed by rename; "healing" a
    // directory or a device would replace it. The read after the lock
    // checks again, on the file it reads.
    struct stat info {};
    if (::stat(path_.c_str(), &info) == 0 && !S_ISREG(info.st_mode))
        throwNotRegular(path_);
    acquireLock();
    try {
        recoverAndLoad();
    } catch (...) {
        releaseLock();
        throw;
    }
}

ResultStore::~ResultStore()
{
    if (out_.is_open())
        out_.close();
    releaseLock();
}

void
ResultStore::acquireLock()
{
    for (int attempt = 0; attempt < 16; ++attempt) {
        const int fd = ::open(lockPath_.c_str(),
                              O_CREAT | O_EXCL | O_WRONLY, 0644);
        if (fd >= 0) {
            const std::string pid =
                std::to_string(static_cast<long>(::getpid())) + "\n";
            const ssize_t wrote =
                ::write(fd, pid.data(), pid.size());
            ::close(fd);
            if (wrote != static_cast<ssize_t>(pid.size()))
                throw ConfigError("cannot write result cache lock '" +
                                  lockPath_ + "'");
            lockHeld_ = true;
            return;
        }
        if (errno != EEXIST)
            throw ConfigError("cannot create result cache lock '" +
                              lockPath_ + "'");

        // Somebody holds it. A dead owner's lock is stale: SIGKILL
        // cannot run destructors, so takeover is the only way a
        // killed run's cache ever opens again.
        long owner = 0;
        {
            std::ifstream in(lockPath_);
            in >> owner;
            if (!in)
                owner = 0;
        }
        const bool alive =
            owner > 0 && (::kill(static_cast<pid_t>(owner), 0) == 0 ||
                          errno == EPERM);
        if (alive)
            throw ConfigError("result cache '" + path_ +
                              "' is locked by running process " +
                              std::to_string(owner) + "; remove '" +
                              lockPath_ + "' if that is wrong");
        // Stale (dead pid or unreadable): take it over and retry the
        // exclusive create — a race loser just loops again.
        ::unlink(lockPath_.c_str());
    }
    throw ConfigError("cannot acquire result cache lock '" + lockPath_ +
                      "' (retries exhausted)");
}

void
ResultStore::releaseLock()
{
    if (!lockHeld_)
        return;
    ::unlink(lockPath_.c_str());
    lockHeld_ = false;
}

void
ResultStore::recoverAndLoad()
{
    // Read after the lock: a concurrent healer renames a new file over
    // the path, so bytes opened before the lock could be stale.
    const ReadStatus status = readRegularFile(path_, &bytes_);
    if (status == ReadStatus::NotRegular)
        throwNotRegular(path_);
    if (status == ReadStatus::Failed)
        throw ConfigError("error reading result cache '" + path_ + "'");
    if (status == ReadStatus::Missing) {
        bytes_ = freshHeader();
        std::ofstream create(path_,
                             std::ios::binary | std::ios::trunc);
        create << bytes_;
        create.flush();
        if (!create.good())
            throw ConfigError("cannot create result cache '" + path_ + "'");
    } else {
        const ResultStoreScan scan = scanResultStore(bytes_);
        if (!scan.magicOk && !scan.headerTorn)
            throw ConfigError("'" + path_ +
                              "' is not a qccd result cache (bad magic)");
        if (!scan.headerTorn && !scan.versionOk)
            throw ConfigError(
                "result cache '" + path_ + "' has schema version " +
                std::to_string(scan.version) +
                "; this build reads and writes version " +
                std::to_string(kSchemaVersion) +
                " — point --cache at a fresh file (or delete this "
                "one) to recompute");

        index_.reserve(scan.records.size());
        for (const ScannedResultRecord &record : scan.records)
            index_.assign(record.key, record.offset + kFrameOverhead);
        stats_.loaded = scan.records.size();
        stats_.quarantined = scan.defects.size();
        stats_.healedTail = scan.tornTail();

        if (!scan.defects.empty() || scan.tornTail()) {
            // Quarantine first (so the dropped bytes stay inspectable
            // even if the rewrite below fails), then compact the file
            // to header + intact records in one atomic replace.
            if (!scan.defects.empty()) {
                std::ofstream quarantine(path_ + ".quarantine",
                                         std::ios::app);
                for (const ResultStoreDefect &defect : scan.defects)
                    quarantine
                        << "offset=" << defect.offset
                        << " length=" << defect.length
                        << " reason=" << defect.reason << " hex="
                        << hexPrefix(bytes_, defect.offset,
                                     defect.length)
                        << "\n";
                quarantine.flush();
                if (!quarantine.good())
                    throw ConfigError("cannot write quarantine sidecar '" +
                                      path_ + ".quarantine'");
            }
            // An intact record's frame is its length, its verified
            // checksum and its payload: copied as it stands.
            std::string compacted = freshHeader();
            compacted.reserve(kHeaderSize +
                              scan.records.size() * kFrameSize);
            for (const ScannedResultRecord &record : scan.records)
                compacted.append(bytes_, record.offset, kFrameSize);
            replaceTextFileAtomic(compacted, path_);
        }
    }

    out_.open(path_, std::ios::binary | std::ios::app);
    if (!out_.good())
        throw ConfigError("cannot open result cache '" + path_ +
                          "' for appending");
}

std::optional<RunResult>
ResultStore::lookup(const Digest128 &key)
{
    QCCD_FAULT_POINT("cache.lookup");
    const size_t at = index_.find(key);
    if (at == RecordIndex::npos) {
        ++stats_.misses;
        return std::nullopt;
    }
    ++stats_.hits;
    Digest128 stored;
    RunResult result;
    const bool decoded = decodeRecordPayload(
        std::string_view(bytes_).substr(at, kPayloadSize), &stored, &result);
    panicUnless(decoded, "an indexed result record does not decode");
    return result;
}

void
ResultStore::insert(const Digest128 &key, const RunResult &result)
{
    QCCD_FAULT_POINT("cache.append");
    if (index_.find(key) != RecordIndex::npos)
        return; // replays (resume re-hits) must not grow the file
    const std::string payload = encodeRecordPayload(key, result);
    std::string frame;
    frame.reserve(kFrameSize);
    putU32(frame, static_cast<uint32_t>(payload.size()));
    putU64(frame, fnv1a64(payload.data(), payload.size()));
    frame += payload;
    out_.write(frame.data(),
               static_cast<std::streamsize>(frame.size()));
    QCCD_FAULT_POINT("cache.commit");
    out_.flush();
    if (!out_.good())
        throw ConfigError("cannot append to result cache '" + path_ + "'");
    index_.assign(key, bytes_.size() + kFrameOverhead);
    bytes_ += frame;
    ++stats_.inserts;
}

size_t
ResultStore::RecordIndex::home(const Digest128 &key) const
{
    // Fibonacci hashing: the top bits of a multiply by 2^64/phi.
    return static_cast<size_t>(((key.hi ^ key.lo) * 0x9e3779b97f4a7c15ULL) >>
                               shift_);
}

size_t
ResultStore::RecordIndex::find(const Digest128 &key) const
{
    if (slots_.empty())
        return npos;
    const size_t mask = slots_.size() - 1;
    for (size_t i = home(key);; i = (i + 1) & mask) {
        const Slot &slot = slots_[i];
        if (slot.offset == npos || slot.key == key)
            return slot.offset;
    }
}

void
ResultStore::RecordIndex::assign(const Digest128 &key, size_t offset)
{
    if (2 * (size_ + 1) > slots_.size())
        reserve(size_ + 1);
    const size_t mask = slots_.size() - 1;
    for (size_t i = home(key);; i = (i + 1) & mask) {
        Slot &slot = slots_[i];
        if (slot.offset == npos) {
            slot = {key, offset};
            ++size_;
            return;
        }
        if (slot.key == key) {
            slot.offset = offset;
            return;
        }
    }
}

void
ResultStore::RecordIndex::reserve(size_t count)
{
    const size_t capacity = std::bit_ceil(std::max<size_t>(64, 2 * count));
    if (capacity <= slots_.size())
        return;
    std::vector<Slot> old = std::exchange(slots_, std::vector<Slot>(capacity));
    shift_ = 64 - std::countr_zero(capacity);
    size_ = 0;
    for (const Slot &slot : old)
        if (slot.offset != npos)
            assign(slot.key, slot.offset);
}

Digest128
ResultStore::keyFor(const DesignPoint &design,
                    const RunOptions &options,
                    const Digest128 &circuit_digest)
{
    StableHash hash;
    hash.u32(kSchemaVersion);

    hash.str(design.topologySpec);
    const std::string topo_prefix = "topo:";
    if (design.topologySpec.rfind(topo_prefix, 0) == 0) {
        // A device file's *content* decides the result; the same path
        // with edited bytes must miss.
        const std::string file =
            design.topologySpec.substr(topo_prefix.size());
        std::string bytes;
        if (readRegularFile(file, &bytes) != ReadStatus::Ok) [[unlikely]]
            throw ConfigError("cannot read topology file '" + file +
                              "' for the cache key");
        hash.str(bytes);
    }
    hash.i64(design.trapCapacity);

    for (const HardwareKnob &knob : kHardwareKnobs) {
        const double value = knob.get(design.hw);
        if (knob.type == KnobType::Integer)
            hash.i64(static_cast<int64_t>(value));
        else
            hash.f64(value);
    }

    // Result-affecting options only: a timeout cannot change the
    // metrics of a point that completes.
    hash.i64(static_cast<int64_t>(options.mappingPolicy));
    hash.i64(options.decomposeRuntime ? 1 : 0);

    hash.u64(circuit_digest.hi);
    hash.u64(circuit_digest.lo);
    return hash.digest();
}

Digest128
ResultStore::circuitDigest(const Circuit &circuit)
{
    // Content only — the name is a label, not an input to the result.
    CircuitDigestSink sink(circuit.numQubits());
    for (const Gate &gate : circuit.gates())
        sink.add(gate);
    return sink.digest();
}

Digest128
ResultStore::loweredCircuitDigest(const Circuit &source)
{
    CircuitDigestSink sink(source.numQubits());
    decomposeInto(source, sink);
    return sink.digest();
}

std::string
ResultStore::encodeRecordPayload(const Digest128 &key,
                                 const RunResult &result)
{
    std::string out;
    out.reserve(kPayloadSize);
    putU64(out, key.hi);
    putU64(out, key.lo);
    forEachStoredField(result, [&out](const auto &field) {
        using T = std::remove_cvref_t<decltype(field)>;
        if constexpr (std::is_same_v<T, double>)
            putF64(out, field);
        else if constexpr (std::is_same_v<T, long>)
            putI64(out, field);
        else {
            static_assert(std::is_same_v<T, int>,
                          "a stored field needs an encoding");
            putU32(out, static_cast<uint32_t>(field));
        }
    });
    panicUnless(out.size() == kPayloadSize,
                "result record payload size drifted from the schema");
    return out;
}

bool
ResultStore::decodeRecordPayload(std::string_view payload,
                                 Digest128 *key, RunResult *result)
{
    if (payload.size() != kPayloadSize)
        return false;
    ByteReader reader(payload);
    key->hi = reader.u64();
    key->lo = reader.u64();
    forEachStoredField(*result, [&reader](auto &field) {
        using T = std::remove_cvref_t<decltype(field)>;
        if constexpr (std::is_same_v<T, double>)
            field = reader.f64();
        else if constexpr (std::is_same_v<T, long>)
            field = reader.i64();
        else
            field = reader.i32();
    });
    return reader.done();
}

} // namespace qccd
