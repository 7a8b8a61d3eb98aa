#include "core/result_store.hpp"

#include <algorithm>
#include <bit>
#include <cerrno>
#include <csignal>
#include <fstream>
#include <sstream>

#include <fcntl.h>
#include <unistd.h>

#include "common/error.hpp"
#include "common/faultpoint.hpp"
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

/** Bounds-checked little-endian reader over payload bytes. */
class ByteReader
{
  public:
    explicit ByteReader(const std::string &bytes) : bytes_(bytes) {}

    bool ok() const { return ok_; }
    bool done() const { return ok_ && pos_ == bytes_.size(); }

    uint32_t u32()
    {
        uint32_t value = 0;
        if (!take(4))
            return 0;
        for (int i = 0; i < 4; ++i)
            value |= static_cast<uint32_t>(byteAt(pos_ - 4 + i))
                     << (8 * i);
        return value;
    }

    uint64_t u64()
    {
        uint64_t value = 0;
        if (!take(8))
            return 0;
        for (int i = 0; i < 8; ++i)
            value |= static_cast<uint64_t>(byteAt(pos_ - 8 + i))
                     << (8 * i);
        return value;
    }

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

    unsigned char byteAt(size_t i) const
    {
        return static_cast<unsigned char>(bytes_[i]);
    }

    const std::string &bytes_;
    size_t pos_ = 0;
    bool ok_ = true;
};

/** Read a whole file as raw bytes; false when it does not exist. */
bool
readFileBytes(const std::string &path, std::string *out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in.is_open())
        return false;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    if (in.bad())
        throw ConfigError("error reading result cache '" + path + "'");
    *out = buffer.str();
    return true;
}

/** First bytes of a corrupt region as hex, for the quarantine line. */
std::string
hexPrefix(const std::string &bytes, size_t offset, size_t length)
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
scanResultStore(const std::string &bytes)
{
    ResultStoreScan scan;
    scan.tornTailOffset = bytes.size();

    const std::string header = ResultStore::freshHeader();
    if (bytes.size() < ResultStore::kHeaderSize) {
        // A file shorter than the header is healable only when it is
        // a prefix of a legitimate creation (torn first write);
        // anything else is some other file handed to us by mistake.
        scan.headerTorn =
            bytes == header.substr(0, bytes.size()) ||
            (bytes.size() >= ResultStore::kMagicSize &&
             bytes.compare(0, ResultStore::kMagicSize,
                           ResultStore::magic()) == 0);
        scan.magicOk = bytes.size() >= ResultStore::kMagicSize &&
                       scan.headerTorn;
        return scan;
    }

    scan.magicOk = bytes.compare(0, ResultStore::kMagicSize,
                                 ResultStore::magic()) == 0;
    if (!scan.magicOk)
        return scan;
    for (int i = 0; i < 4; ++i)
        scan.version |= static_cast<uint32_t>(static_cast<unsigned char>(
                            bytes[ResultStore::kMagicSize + i]))
                        << (8 * i);
    scan.versionOk = scan.version == ResultStore::kSchemaVersion;
    if (!scan.versionOk)
        return scan; // foreign layout: nothing else is knowable

    size_t offset = ResultStore::kHeaderSize;
    while (offset < bytes.size()) {
        const size_t remaining = bytes.size() - offset;
        if (remaining < kFrameOverhead) {
            scan.truncatedTail = true;
            scan.tornTailOffset = offset;
            return scan;
        }
        uint32_t length = 0;
        for (int i = 0; i < 4; ++i)
            length |= static_cast<uint32_t>(static_cast<unsigned char>(
                          bytes[offset + i]))
                      << (8 * i);
        if (length != ResultStore::kPayloadSize) {
            // Impossible framing: record boundaries downstream are
            // unknowable, so the whole rest of the file is one defect.
            scan.defects.push_back(
                {offset, remaining, "frame"});
            scan.tornTailOffset = offset;
            return scan;
        }
        if (remaining < kFrameOverhead + length) {
            scan.truncatedTail = true;
            scan.tornTailOffset = offset;
            return scan;
        }
        uint64_t checksum = 0;
        for (int i = 0; i < 8; ++i)
            checksum |= static_cast<uint64_t>(static_cast<unsigned char>(
                            bytes[offset + 4 + i]))
                        << (8 * i);
        std::string payload =
            bytes.substr(offset + kFrameOverhead, length);
        if (fnv1a64(payload.data(), payload.size()) != checksum) {
            scan.defects.push_back(
                {offset, kFrameOverhead + length, "checksum"});
            offset += kFrameOverhead + length;
            continue;
        }
        ScannedResultRecord record;
        record.offset = offset;
        ByteReader reader(payload);
        record.key.hi = reader.u64();
        record.key.lo = reader.u64();
        record.payload = std::move(payload);
        scan.records.push_back(std::move(record));
        offset += kFrameOverhead + length;
    }
    return scan;
}

ResultStore::ResultStore(const std::string &path)
    : path_(path), lockPath_(path + ".lock")
{
    QCCD_FAULT_POINT("cache.open");
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
    std::string bytes;
    if (!readFileBytes(path_, &bytes)) {
        std::ofstream create(path_,
                             std::ios::binary | std::ios::trunc);
        create << freshHeader();
        create.flush();
        if (!create.good())
            throw ConfigError("cannot create result cache '" + path_ + "'");
    } else {
        const ResultStoreScan scan = scanResultStore(bytes);
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

        for (const ScannedResultRecord &record : scan.records) {
            RunResult result;
            Digest128 key;
            if (!decodeRecordPayload(record.payload, &key, &result))
                continue; // unreachable for version-1 payloads
            index_.insert_or_assign(key, result);
        }
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
                        << hexPrefix(bytes, defect.offset,
                                     defect.length)
                        << "\n";
                quarantine.flush();
                if (!quarantine.good())
                    throw ConfigError("cannot write quarantine sidecar '" +
                                      path_ + ".quarantine'");
            }
            std::string compacted = freshHeader();
            for (const ScannedResultRecord &record : scan.records) {
                putU32(compacted, static_cast<uint32_t>(
                                      record.payload.size()));
                putU64(compacted, fnv1a64(record.payload.data(),
                                          record.payload.size()));
                compacted += record.payload;
            }
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
    const auto it = index_.find(key);
    if (it == index_.end()) {
        ++stats_.misses;
        return std::nullopt;
    }
    ++stats_.hits;
    return it->second;
}

void
ResultStore::insert(const Digest128 &key, const RunResult &result)
{
    QCCD_FAULT_POINT("cache.append");
    if (index_.find(key) != index_.end())
        return; // replays (resume re-hits) must not grow the file
    const std::string payload = encodeRecordPayload(key, result);
    std::string frame;
    frame.reserve(kFrameOverhead + payload.size());
    putU32(frame, static_cast<uint32_t>(payload.size()));
    putU64(frame, fnv1a64(payload.data(), payload.size()));
    frame += payload;
    out_.write(frame.data(),
               static_cast<std::streamsize>(frame.size()));
    QCCD_FAULT_POINT("cache.commit");
    out_.flush();
    if (!out_.good())
        throw ConfigError("cannot append to result cache '" + path_ + "'");
    index_.emplace(key, result);
    ++stats_.inserts;
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
        if (!readFileBytes(file, &bytes)) [[unlikely]]
            throw ConfigError("cannot read topology file '" + file +
                              "' for the cache key");
        hash.str(bytes);
    }
    hash.i64(design.trapCapacity);

    const HardwareParams &hw = design.hw;
    hash.i64(static_cast<int64_t>(hw.gateImpl));
    hash.i64(static_cast<int64_t>(hw.reorder));
    hash.f64(hw.oneQubitUs);
    hash.f64(hw.measureUs);
    hash.f64(hw.twoQubitFloorUs);
    hash.f64(hw.shuttle.movePerSegment);
    hash.f64(hw.shuttle.split);
    hash.f64(hw.shuttle.merge);
    hash.f64(hw.shuttle.yJunction);
    hash.f64(hw.shuttle.xJunction);
    hash.f64(hw.shuttle.ionSwapRotation);
    hash.f64(hw.heatingK1);
    hash.f64(hw.heatingK2);
    hash.f64(hw.gammaPerS);
    hash.f64(hw.kappa);
    hash.f64(hw.oneQubitError);
    hash.f64(hw.measureError);
    hash.i64(hw.bufferSlots);
    hash.f64(hw.recoolFactor);

    // Result-affecting options only: timeouts and trace collection
    // cannot change the metrics of a point that completes.
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
    StableHash hash;
    hash.i64(circuit.numQubits());
    for (const Gate &gate : circuit.gates()) {
        hash.i64(static_cast<int64_t>(gate.op));
        hash.i64(gate.q0);
        hash.i64(gate.q1);
        hash.f64(gate.param);
    }
    return hash.digest();
}

std::string
ResultStore::encodeRecordPayload(const Digest128 &key,
                                 const RunResult &result)
{
    std::string out;
    out.reserve(kPayloadSize);
    putU64(out, key.hi);
    putU64(out, key.lo);

    const SimResult &sim = result.sim;
    putF64(out, sim.makespan);
    putF64(out, sim.logFidelity);
    putI64(out, sim.zeroFidelityOps);
    putI64(out, sim.counts.algorithmMs);
    putI64(out, sim.counts.reorderMs);
    putI64(out, sim.counts.oneQubit);
    putI64(out, sim.counts.measurements);
    putI64(out, sim.counts.splits);
    putI64(out, sim.counts.merges);
    putI64(out, sim.counts.moves);
    putI64(out, sim.counts.segmentsMoved);
    putI64(out, sim.counts.junctionCrossings);
    putI64(out, sim.counts.rotations);
    putI64(out, sim.counts.transits);
    putI64(out, sim.counts.shuttles);
    putI64(out, sim.counts.evictions);
    putI64(out, sim.counts.trapPassThroughs);
    putF64(out, sim.maxChainEnergy);
    putF64(out, sim.sumBackgroundError);
    putF64(out, sim.sumMotionalError);
    putF64(out, sim.computeBusy);
    putF64(out, sim.commBusy);
    putU32(out, static_cast<uint32_t>(sim.effectiveBuffer));
    putF64(out, result.computeOnlyTime);

    panicUnless(out.size() == kPayloadSize,
                "result record payload size drifted from the schema");
    return out;
}

bool
ResultStore::decodeRecordPayload(const std::string &payload,
                                 Digest128 *key, RunResult *result)
{
    if (payload.size() != kPayloadSize)
        return false;
    ByteReader reader(payload);
    key->hi = reader.u64();
    key->lo = reader.u64();

    SimResult &sim = result->sim;
    sim.makespan = reader.f64();
    sim.logFidelity = reader.f64();
    sim.zeroFidelityOps = reader.i64();
    sim.counts.algorithmMs = reader.i64();
    sim.counts.reorderMs = reader.i64();
    sim.counts.oneQubit = reader.i64();
    sim.counts.measurements = reader.i64();
    sim.counts.splits = reader.i64();
    sim.counts.merges = reader.i64();
    sim.counts.moves = reader.i64();
    sim.counts.segmentsMoved = reader.i64();
    sim.counts.junctionCrossings = reader.i64();
    sim.counts.rotations = reader.i64();
    sim.counts.transits = reader.i64();
    sim.counts.shuttles = reader.i64();
    sim.counts.evictions = reader.i64();
    sim.counts.trapPassThroughs = reader.i64();
    sim.maxChainEnergy = reader.f64();
    sim.sumBackgroundError = reader.f64();
    sim.sumMotionalError = reader.f64();
    sim.computeBusy = reader.f64();
    sim.commBusy = reader.f64();
    sim.effectiveBuffer = reader.i32();
    result->computeOnlyTime = reader.f64();
    return reader.done();
}

} // namespace qccd
