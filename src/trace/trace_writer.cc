/**
 * @file
 * TraceWriter implementation.
 */

#include "trace/trace_writer.hh"

#include "sim/bytes.hh"
#include "sim/logging.hh"

namespace xser::trace {

const char traceMagic[4] = {'X', 'T', 'R', 'C'};

TraceWriter::TraceWriter(const std::string &path)
    : path_(path),
      out_(path, std::ios::binary | std::ios::trunc)
{
    if (!out_)
        fatal(msg("cannot open trace file '", path_, "' for writing"));
}

std::string
TraceWriter::encodeHeader(uint64_t seed, uint64_t config_hash,
                          const std::vector<TraceArrayInfo> &arrays,
                          uint64_t unit_count)
{
    ByteWriter out;
    out.raw(std::string_view(traceMagic, sizeof(traceMagic)));
    out.varint(traceFormatVersion);
    out.varint(seed);
    out.varint(config_hash);
    out.varint(arrays.size());
    for (const TraceArrayInfo &array : arrays) {
        out.strVarint(array.name);
        out.varint(array.level);
        out.varint(array.wordsPerLine);
        out.varint(array.associativity);
        out.varint(array.words);
    }
    out.varint(unit_count);
    return out.take();
}

std::string
TraceWriter::encodeUnit(const TraceBuffer &buffer)
{
    ByteWriter out;
    out.varint(buffer.info.session);
    out.varint(buffer.info.replicate);
    out.f64(buffer.info.pmdMillivolts);
    out.f64(buffer.info.socMillivolts);
    out.f64(buffer.info.frequencyHz);
    out.varint(buffer.info.workloads.size());
    for (const std::string &name : buffer.info.workloads)
        out.strVarint(name);
    out.varint(buffer.dropped());
    out.varint(buffer.events().size());
    Tick previous = 0;
    for (const TraceEvent &event : buffer.events()) {
        XSER_ASSERT(event.when >= previous,
                    "trace timestamps must be monotonic within a unit");
        out.varint(static_cast<uint64_t>(event.type));
        out.varint(event.when - previous);
        previous = event.when;
        // +1 encodings reserve 0 for the "none" sentinels.
        out.varint(event.array == noArray
                       ? 0
                       : static_cast<uint64_t>(event.array) + 1);
        out.varint(event.word + 1); // noWord + 1 wraps to 0
        out.varint(event.bit == noBit
                       ? 0
                       : static_cast<uint64_t>(event.bit) + 1);
        out.varint(event.aux);
    }
    return out.take();
}

void
TraceWriter::write(const std::string &file)
{
    out_.write(file.data(), static_cast<std::streamsize>(file.size()));
    out_.flush();
    if (!out_)
        fatal(msg("I/O error writing trace file '", path_, "'"));
    out_.close();
}

} // namespace xser::trace
