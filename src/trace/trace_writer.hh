/**
 * @file
 * Versioned compact binary trace files (.xtrace).
 *
 * Layout (all integers unsigned-LEB128 varints unless noted; every
 * primitive comes from the shared codec in sim/bytes.hh):
 *
 *   "XTRC" magic (4 raw bytes)
 *   version, campaign seed, config hash
 *   array count, then per array: name length + bytes, level,
 *     words-per-line, associativity, words
 *   unit count
 *   per unit, in canonical replicate-major order:
 *     session, replicate
 *     pmd mV, soc mV, frequency Hz (fixed 8-byte LE doubles)
 *     workload count, then per workload: name length + bytes
 *     dropped count, event count
 *     per event: type, timestamp delta (first is absolute), array+1,
 *       word+1, bit+1, aux  (the +1 encodings reserve 0 for "none")
 *
 * Timestamps within a unit are monotonic (the sim clock only moves
 * forward), so deltas keep typical events to a handful of bytes. The
 * writer is deterministic: identical buffers in identical order
 * produce byte-identical files.
 */

#ifndef XSER_TRACE_TRACE_WRITER_HH
#define XSER_TRACE_TRACE_WRITER_HH

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "trace/trace_buffer.hh"

namespace xser::trace {

/** Current format version. */
constexpr uint64_t traceFormatVersion = 1;

/** The 4-byte file magic. */
extern const char traceMagic[4];

/**
 * Writes a trace file: encodeHeader() followed by one encodeUnit()
 * section per work unit in canonical order. Opening happens in the
 * constructor so an unwritable path fails before any simulation time
 * is spent; the bytes arrive in one write() once they exist.
 */
class TraceWriter
{
  public:
    /** Opens (truncates) `path`; fatal when it cannot be written. */
    explicit TraceWriter(const std::string &path);

    /** Write the whole file and close it; fatal on I/O failure. */
    void write(const std::string &file);

    const std::string &path() const { return path_; }

    /**
     * Encode one unit section. Campaign units encode their own
     * section where they run, so the merge only concatenates.
     */
    static std::string encodeUnit(const TraceBuffer &buffer);

    /** Encode the file header. */
    static std::string
    encodeHeader(uint64_t seed, uint64_t config_hash,
                 const std::vector<TraceArrayInfo> &arrays,
                 uint64_t unit_count);

  private:
    std::string path_;
    std::ofstream out_;
};

} // namespace xser::trace

#endif // XSER_TRACE_TRACE_WRITER_HH
