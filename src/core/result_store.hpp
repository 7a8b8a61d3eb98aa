/**
 * @file
 * Crash-safe persistent result store: an embedded, single-file,
 * append-only, content-addressed cache of per-point toolflow results.
 *
 * Why: every sweep recomputes from scratch and its results die with
 * the process. The store makes overlapping sweeps, `--resume`, and
 * repeated CI runs hit cache instead of re-simulating, while keeping
 * the project's core contract — cache-hit runs are byte-identical to
 * cold runs — and its robustness discipline: torn writes, corrupt
 * entries, version skew and concurrent writers degrade to a cache
 * miss (recompute and re-append), never to a wrong row or a crash.
 *
 * On-disk format (all integers little-endian):
 *
 *     header   8-byte magic "qccdRES\n"
 *              u32 schema version (kSchemaVersion)
 *              u32 reserved (zero)
 *     record*  u32 payload length (always kPayloadSize for version 1)
 *              u64 FNV-1a checksum of the payload
 *              payload: 128-bit key then the RunResult fields in
 *              declaration order (double f64, long i64, int u32)
 *
 * Records are committed by flushed append, so a partial file of a
 * killed run is a valid store plus at most one torn tail. Open-time
 * recovery:
 *
 *  - torn tail (incomplete final record / header): truncated by an
 *    atomic rewrite (the PR 7 tmp+rename healing pattern) — a reader
 *    never sees a half-healed file;
 *  - checksum-failing record: quarantined to `<path>.quarantine`
 *    (human-readable, one line per record) and dropped from the file;
 *  - bad framing (impossible length): everything from that offset is
 *    quarantined as one corrupt region;
 *  - wrong magic or schema version: refused with a ConfigError — the
 *    store never silently merges foreign or version-skewed data.
 *
 * Concurrent processes are serialized by `<path>.lock` holding the
 * owner's pid: a lock whose pid is dead is taken over, a live owner
 * is refused with a ConfigError naming it. Every entry the recovery
 * drops is simply a miss; the caller recomputes and re-appends.
 */

#ifndef QCCD_CORE_RESULT_STORE_HPP
#define QCCD_CORE_RESULT_STORE_HPP

#include <cstdint>
#include <fstream>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/hash.hpp"
#include "core/toolflow.hpp"

namespace qccd
{

/** What a ResultStore did since open (for the CLI's `cache:` line). */
struct ResultStoreStats
{
    size_t hits = 0;      ///< lookups that returned a row
    size_t misses = 0;    ///< lookups that did not
    size_t inserts = 0;   ///< records appended this session
    size_t loaded = 0;    ///< intact records found at open
    size_t quarantined = 0; ///< corrupt records dropped at open
    bool healedTail = false; ///< open truncated a torn tail
};

/** One intact record found by scanResultStore(). */
struct ScannedResultRecord
{
    size_t offset = 0;        ///< file offset of the record framing
    Digest128 key;
    std::string_view payload; ///< checksum-verified payload bytes
};

/** One corrupt region found by scanResultStore(). */
struct ResultStoreDefect
{
    size_t offset = 0; ///< file offset where the defect starts
    size_t length = 0; ///< bytes covered (to end of record or file)
    std::string reason; ///< "checksum" or "frame"
};

/**
 * Static analysis of result-store bytes, shared by ResultStore's
 * open-time recovery and qccd_lint's `.qcache` validation. Never
 * throws: every possible byte string yields a verdict. Records are
 * framed in place: each payload views the scanned bytes, which must
 * outlive the scan.
 */
struct ResultStoreScan
{
    bool magicOk = false;
    uint32_t version = 0;
    bool versionOk = false;

    /** True when the bytes are a proper prefix of a fresh header (a
     *  creation torn mid-write) — healable, unlike a bad magic. */
    bool headerTorn = false;

    std::vector<ScannedResultRecord> records;
    std::vector<ResultStoreDefect> defects;

    /** Offset of an incomplete final record; bytes.size() when the
     *  file ends on a record boundary. */
    size_t tornTailOffset = 0;

    bool tornTail() const { return headerTorn || truncatedTail; }
    bool truncatedTail = false;
};

ResultStoreScan scanResultStore(std::string_view bytes);

/**
 * The embedded cache. Construction acquires the lock, recovers the
 * file and indexes it; destruction releases the lock. The store keeps
 * the bytes it read and a flat key -> record index into them, and
 * decodes a record only when a lookup hits it; inserts append-and-
 * flush, and join the same bytes and index.
 *
 * Not internally synchronized: one ResultStore belongs to one thread
 * (the sweep runner's emit loop, which is already serial). Cross-
 * process safety comes from the lock file.
 */
class ResultStore
{
  public:
    /** Bump when the record payload layout or key recipe changes. */
    static constexpr uint32_t kSchemaVersion = 1;

    static constexpr size_t kMagicSize = 8;
    static constexpr size_t kHeaderSize = 16;

    /** Fixed version-1 payload size (framing rejects anything else). */
    static constexpr size_t kPayloadSize = 204;

    /** The 8 magic bytes ("qccdRES\n"). */
    static const char *magic();

    /** A valid empty store (header only), as bytes. */
    static std::string freshHeader();

    /**
     * Open (creating if missing) the store at @p path.
     *
     * @throws ConfigError when @p path exists but is not a regular
     *         file (refused before the lock is taken), when the file
     *         is not a result store, when its schema version differs
     *         from kSchemaVersion, or when another live process holds
     *         the lock. Corruption never throws — it is quarantined
     *         and becomes misses.
     */
    explicit ResultStore(const std::string &path);
    ~ResultStore();

    ResultStore(const ResultStore &) = delete;
    ResultStore &operator=(const ResultStore &) = delete;

    const std::string &path() const { return path_; }
    const ResultStoreStats &stats() const { return stats_; }
    size_t entries() const { return index_.size(); }

    /** The cached result for @p key, if any (counts a hit or miss). */
    std::optional<RunResult> lookup(const Digest128 &key);

    /**
     * Append @p result under @p key (flushed). A key already present
     * is a no-op: replays after a resume cannot grow the file, which
     * is what makes warm store bytes deterministic under kill/resume.
     * @throws ConfigError when the append cannot be durably written.
     */
    void insert(const Digest128 &key, const RunResult &result);

    /**
     * The stable cache key of one planned point: schema version, the
     * full architecture (topology spec — with the device file's bytes
     * for "topo:" specs — capacity, and every row of kHardwareKnobs
     * in table order), the result-affecting run options, and the
     * lowered circuit's digest. Deliberately excluded: application
     * labels, file paths, timeouts and trace flags — nothing that
     * cannot change the emitted metrics.
     * @throws ConfigError when a "topo:" device file is unreadable
     *         (the caller treats the point as uncacheable).
     */
    static Digest128 keyFor(const DesignPoint &design,
                            const RunOptions &options,
                            const Digest128 &circuit_digest);

    /** Content digest of a lowered circuit (name excluded). */
    static Digest128 circuitDigest(const Circuit &circuit);

    /**
     * circuitDigest(decomposeToNative(@p source)), folded straight
     * from the decomposition's gate stream: a point is keyed from its
     * source circuit, and lowered only when it misses.
     */
    static Digest128 loweredCircuitDigest(const Circuit &source);

    /**
     * Serialize @p key + @p result as a version-1 record payload
     * (exactly kPayloadSize bytes). Exposed for `--cache-verify`'s
     * bit-exact comparison and the tests' corruption campaigns.
     */
    static std::string encodeRecordPayload(const Digest128 &key,
                                           const RunResult &result);

    /** Inverse of encodeRecordPayload; false on any size mismatch. */
    static bool decodeRecordPayload(std::string_view payload,
                                    Digest128 *key, RunResult *result);

  private:
    /** Key -> payload offset in bytes_: open addressing with linear
     *  probing over a power-of-two table at most half full. */
    class RecordIndex
    {
      public:
        static constexpr size_t npos = static_cast<size_t>(-1);

        size_t size() const { return size_; }

        /** The payload offset stored for @p key, or npos. */
        size_t find(const Digest128 &key) const;

        /** Map @p key to @p offset; a later record of a key wins. */
        void assign(const Digest128 &key, size_t offset);

        /** Size the table for @p count keys. */
        void reserve(size_t count);

      private:
        struct Slot
        {
            Digest128 key;
            size_t offset = npos; ///< npos: an empty slot
        };

        size_t home(const Digest128 &key) const;

        std::vector<Slot> slots_;
        int shift_ = 64; ///< 64 - log2(slots_.size())
        size_t size_ = 0;
    };

    void acquireLock();
    void releaseLock();
    void recoverAndLoad();

    std::string path_;
    std::string lockPath_;
    bool lockHeld_ = false;
    std::ofstream out_;
    std::string bytes_; ///< what open read, then every appended frame
    RecordIndex index_;
    ResultStoreStats stats_;
};

} // namespace qccd

#endif // QCCD_CORE_RESULT_STORE_HPP
