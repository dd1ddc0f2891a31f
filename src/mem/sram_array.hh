/**
 * @file
 * Bit-true SRAM array model with an error-protection overlay.
 *
 * This is the foundation of the whole study: every cache/TLB data array in
 * the simulated X-Gene 2 is an SramArray holding *actual* bits plus stored
 * check bits. The beam flips stored bits; detection only happens when a
 * word is subsequently read (by the workload, a fill, or the patrol
 * scrubber), which is why observed upset rates sit below raw upset rates
 * exactly as the paper discusses in Section 3.5.
 *
 * The array ground-truths silent corruption (parity-even escapes, SECDED
 * miscorrections) that real hardware cannot see -- used only for
 * accounting, never fed back into simulated behaviour. Truth is kept
 * only where it differs from storage: an ordered side table holds the
 * last-written data and check bits of the few words the beam has left
 * corrupt (see SramArray::truth_), since every other word stores its
 * own truth.
 *
 * Fills and evictions move whole 64-byte lines (LineData) through
 * writeLine/readLine, one copy when no word of the line is corrupt.
 */

#ifndef XSER_MEM_SRAM_ARRAY_HH
#define XSER_MEM_SRAM_ARRAY_HH

#include <array>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "ecc/ecc_types.hh"
#include "ecc/secded.hh"
#include "sim/bytes.hh"
#include "sim/logging.hh"
#include "sim/sim_clock.hh"
#include "trace/trace_sink.hh"

namespace xser::mem {

/** Protection scheme of an SRAM array (Table 1 of the paper). */
enum class Protection : uint8_t {
    None,    ///< unprotected (not used by X-Gene 2 caches, kept for
             ///< ablations)
    Parity,  ///< even parity per 64-bit word: detects odd flip counts
    Secded,  ///< SECDED(72,64): corrects 1, detects 2 flips per word
};

/** Human-readable name of a protection scheme. */
const char *protectionName(Protection protection);

/** Words in a cache line: 64-byte lines are the only size built. */
constexpr size_t lineWords = 8;

/** One cache line's data, moved whole between levels. */
using LineData = std::array<uint64_t, lineWords>;

/** Result of a checked read from a protected word. */
struct ReadOutcome {
    uint64_t value;            ///< data delivered to the consumer
    ecc::CheckStatus status;   ///< protection verdict (ground-truthed)
    bool silentCorruption;     ///< delivered value differs from the truth
};

/** Lifetime statistics of one array, for raw-vs-detected analysis. */
struct SramCounters {
    uint64_t bitFlipsInjected = 0;   ///< raw upset bits from the beam
    uint64_t upsetEventsInjected = 0;///< raw upset events (1 per cluster)
    uint64_t corrected = 0;          ///< CE reports (incl. miscorrections)
    uint64_t uncorrected = 0;        ///< UE reports
    uint64_t parityErrors = 0;       ///< parity detections
    uint64_t miscorrections = 0;     ///< ground truth: CE with wrong data
    uint64_t silentEscapes = 0;      ///< reads delivering corrupt data
                                     ///< with a Clean verdict
    uint64_t overwrittenFlips = 0;   ///< corrupt words overwritten before
                                     ///< any read saw them
};

/**
 * A named array of 64-bit words with stored check bits and fault overlay.
 */
class SramArray
{
  public:
    /**
     * @param name Array name used in EDAC attribution (e.g. "l3.data").
     * @param words Capacity in 64-bit words.
     * @param protection Protection scheme for stored words.
     */
    SramArray(std::string name, size_t words, Protection protection);

    const std::string &name() const { return name_; }
    Protection protection() const { return protection_; }

    /** Capacity in 64-bit data words. */
    size_t words() const { return data_.size(); }

    /** Stored bits per word: 64 data + check bits of the scheme. */
    unsigned bitsPerWord() const { return bitsPerWord_; }

    /** Total stored bits, the footprint the beam samples over. */
    uint64_t totalBits() const
    {
        return static_cast<uint64_t>(words()) * bitsPerWord();
    }

    /**
     * Write a word: stores data, which becomes the word's truth, and
     * marks the check bits for lazy regeneration (see materializeCheck).
     * Pending flips in the word are silently destroyed (counted as
     * overwritten), mirroring real hardware.
     */
    void
    write(size_t index, uint64_t value)
    {
        XSER_ASSERT(index < data_.size(), "SRAM write out of range");
        if (corrupt_[index])
            overwriteCorrupt(index);
        data_[index] = value;
        // Check bits are derived lazily: a freshly written word is
        // clean by construction, and encode() is deterministic, so
        // deferring it to the first flip or checked read that actually
        // consumes the check bits yields the same stored values --
        // just not paid per write.
        checkStale_[index] = 1;
    }

    /**
     * Write the lineWords words at [base, base + lineWords), as many
     * write() calls do: one range check, then one copy when no word of
     * the line is corrupt. A line holding a corrupt word, or any line
     * with the fast path off, goes word by word (writeLineReference).
     */
    void
    writeLine(size_t base, const LineData &line)
    {
        if (!fastPath_ || lineCorrupt(base)) {
            writeLineReference(base, line);
            return;
        }
        std::memcpy(&data_[base], line.data(), sizeof(LineData));
        std::memset(&checkStale_[base], 1, lineWords);
    }

    /** writeLine() word by word through write(). */
    void
    writeLineReference(size_t base, const LineData &line)
    {
        for (size_t i = 0; i < lineWords; ++i)
            write(base + i, line[i]);
    }

    /**
     * Read the lineWords words at [base, base + lineWords) into `out`,
     * as many read() calls do, handing each word's outcome to
     * `on_outcome` in word order. One range check, then one copy when
     * no word of the line is corrupt: every outcome is then Clean, and
     * clean outcomes are not handed on. A line holding a corrupt word,
     * or any line with the fast path off, goes word by word
     * (readLineReference), so counters, EDAC posts and trace records
     * keep their order.
     */
    template <class OnOutcome>
    void
    readLine(size_t base, LineData &out, OnOutcome &&on_outcome)
    {
        if (!fastPath_ || lineCorrupt(base)) {
            readLineReference(base, out, on_outcome);
            return;
        }
        std::memcpy(out.data(), &data_[base], sizeof(LineData));
    }

    /** readLine() word by word through read(). */
    template <class OnOutcome>
    void
    readLineReference(size_t base, LineData &out, OnOutcome &&on_outcome)
    {
        for (size_t i = 0; i < lineWords; ++i) {
            const ReadOutcome outcome = read(base + i);
            if (outcome.status != ecc::CheckStatus::Clean)
                on_outcome(outcome);
            out[i] = outcome.value;
        }
    }

    /**
     * Checked read: verifies protection, corrects in place where the
     * scheme allows, and reports what hardware would report. The outcome
     * additionally carries ground-truth flags the campaign uses for
     * Section 6.2 style analysis.
     */
    ReadOutcome
    read(size_t index)
    {
        XSER_ASSERT(index < data_.size(), "SRAM read out of range");
        if (fastPath_ && !corrupt_[index]) {
            // Clean word: every codec verdicts Clean on a word matching
            // its truth, delivers the stored data unchanged, and updates
            // no counter and no trace -- short-circuit all of it.
            return {data_[index], ecc::CheckStatus::Clean, false};
        }
        return readChecked(index);
    }

    /** Raw stored bits without any checking (debug/test aid). */
    uint64_t peek(size_t index) const;

    /** Truth of a word: what software last wrote. */
    uint64_t truth(size_t index) const;

    /** True when the stored word (incl. check bits) deviates from truth. */
    bool isCorrupted(size_t index) const;

    /** Number of words currently deviating from truth. */
    size_t corruptWords() const { return corruptCount_; }

    /** True when any word in [base, base + lineWords) deviates from truth. */
    bool
    lineCorrupt(size_t base) const
    {
        XSER_ASSERT(base + lineWords <= data_.size(),
                    "SRAM line out of range");
        uint64_t flags;
        std::memcpy(&flags, &corrupt_[base], sizeof(flags));
        return flags != 0;
    }

    /**
     * Enable/disable the clean-read fast path. With it on, a read of an
     * uncorrupted word short-circuits past the codec: by the corruption
     * invariant the codec would verdict Clean, deliver the stored data
     * unchanged, touch no counters, and emit no trace -- so the
     * shortcut is observably identical (differential-tested). Off forces
     * every read through the full codec (the reference path).
     */
    void setFastPath(bool enabled) { fastPath_ = enabled; }
    bool fastPath() const { return fastPath_; }

    /**
     * Flip one stored bit.
     *
     * @param index Word index.
     * @param stored_bit Bit position within the stored word footprint:
     *        [0, 64) selects a data bit, [64, bitsPerWord()) a check bit.
     */
    void flipBit(size_t index, unsigned stored_bit);

    /** Record that one upset event (possibly multi-bit) was injected. */
    void noteUpsetEvent() { ++counters_.upsetEventsInjected; }

    /** Lifetime statistics. */
    const SramCounters &counters() const { return counters_; }

    /**
     * Save or load the full checkpointable state: stored bits, check
     * bits, laziness flags, counters -- and, only when corruption is
     * present, the truth as dense columns of every word's data and
     * check bits plus the corruption flags. A clean array's truth is
     * its stored state, so it compresses away and a clean load empties
     * the side table. Wiring (trace sink, time source, fast-path flag)
     * is configuration, not state, and is not serialized. Loading needs
     * an identically configured array (same word count and protection
     * scheme -- validated, fatal on mismatch).
     */
    void visit(Archive &ar);

    /**
     * Attach a lifecycle trace sink (null detaches). The array's read
     * paths are the single chokepoint where every detection and silent
     * escape becomes visible, so emission here is 1:1 with the counter
     * increments above -- the invariant the EDAC cross-check relies on.
     *
     * @param id This array's row in the trace file's array table.
     */
    void setTrace(trace::TraceSink *sink, uint32_t id)
    {
        traceSink_ = sink;
        traceId_ = id;
    }

    trace::TraceSink *traceSink() const { return traceSink_; }
    uint32_t traceId() const { return traceId_; }

    /** Simulated-time source for trace timestamps (null = t0). */
    void setTimeSource(const Tick *now) { now_ = now; }

    /** Current simulated time for emitted events. */
    Tick now() const { return now_ ? *now_ : 0; }

  private:
    /** Full-codec read path behind read()'s clean-word short-circuit. */
    ReadOutcome readChecked(size_t index);

    ReadOutcome readParity(size_t index);
    ReadOutcome readSecded(size_t index);

    /** Record one lifecycle event for word `index` of this array. */
    void emit(trace::EventType type, size_t index, uint32_t bit,
              uint64_t aux);

    /** The truth of a word whose stored bits may differ from it. */
    struct Truth {
        uint64_t data;  ///< last-written data (while the word is corrupt)
        uint8_t check;  ///< check bits of the truth
    };

    /** Data truth: the entry's while corrupt, else the stored data. */
    uint64_t truthData(size_t index) const;

    /** write()'s bookkeeping for a word that was corrupt. */
    void overwriteCorrupt(size_t index);

    /**
     * Re-derive corrupt_[index] after data_/check_ changed underneath
     * the truth (a beam flip or an in-place correction), keeping
     * corruptCount_ and the side table in step. The word must have a
     * truth_ entry; it is dropped when the word matches it again.
     */
    void refreshCorrupt(size_t index);

    /**
     * Derive check_[index] for a word whose last write deferred the
     * encode, and drop the word's truth_ entry: its truth check bits
     * are now the stored ones. Every consumer of the check bits
     * (checked reads, flips) calls this first; while a word is stale it
     * is clean by construction, so laziness is value-preserving.
     */
    void materializeCheck(size_t index);

    std::string name_;
    Protection protection_;
    unsigned bitsPerWord_;
    std::vector<uint64_t> data_;    ///< stored (possibly corrupt) data
    std::vector<uint8_t> check_;    ///< stored check bits
    /**
     * Truth of exactly the words whose stored data or check bits
     * differ from it, in index order:
     *  - every corrupt word (its last-written data and their check
     *    bits);
     *  - a word overwritten after a check-bit flip, until
     *    materializeCheck() re-derives its check bits. Lazy encoding
     *    leaves both the flipped stored check bits and the pre-write
     *    truth's in place, and the dense form shows both; only the
     *    latter is kept here (the data truth is the stored data).
     * Every other word stores its truth.
     */
    std::map<size_t, Truth> truth_;
    /**
     * Exact per-word corruption flags, the invariant behind every fast
     * path: corrupt_[i] != 0 iff the stored data or (once derived)
     * check bits of word i differ from its truth. Maintained on write,
     * flip and repair; never approximate (a flip pair that cancels
     * clears the flag).
     */
    std::vector<uint8_t> corrupt_;
    /**
     * 1 = the word was written but its check bits not yet derived
     * (check_ still holds the previous value's bits). Cleared by
     * materializeCheck().
     */
    std::vector<uint8_t> checkStale_;
    size_t corruptCount_ = 0;
    bool fastPath_ = true;
    SramCounters counters_;
    trace::TraceSink *traceSink_ = nullptr;
    uint32_t traceId_ = trace::noArray;
    const Tick *now_ = nullptr;
};

} // namespace xser::mem

#endif // XSER_MEM_SRAM_ARRAY_HH
