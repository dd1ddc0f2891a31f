/**
 * @file
 * Streaming JSON writer with deterministic output.
 *
 * One emission path serves the run manifest, and e2ebench's records
 * quote and format through it: keys are written in call order
 * (callers use fixed orders), doubles are rendered with the shortest
 * representation that round-trips exactly, and indentation is fixed
 * at two spaces -- so two runs that compute identical values emit
 * identical bytes.
 */

#ifndef XSER_TELEMETRY_JSON_HH
#define XSER_TELEMETRY_JSON_HH

#include <cstdint>
#include <string>
#include <vector>

namespace xser::telemetry {

/** Pretty-printing JSON emitter; misuse (unbalanced begin/end, a value
 *  without a key inside an object) is a programming error and panics. */
class JsonWriter
{
  public:
    JsonWriter() = default;

    void beginObject();
    void endObject();
    void beginArray();
    void endArray();

    /** Name the next value inside the current object. */
    void key(const char *name);

    void value(const std::string &text);
    void value(const char *text);
    void value(double number);
    void value(uint64_t number);
    void value(int64_t number);
    void value(bool flag);
    void value(int number) { value(static_cast<int64_t>(number)); }
    void value(unsigned number)
    {
        value(static_cast<uint64_t>(number));
    }

    /** key() + value() in one call. */
    template <typename T>
    void
    member(const char *name, T &&v)
    {
        key(name);
        value(std::forward<T>(v));
    }

    /** key() + beginObject() in one call. */
    void beginObject(const char *name);

    /** key() + beginArray() in one call. */
    void beginArray(const char *name);

    /** The finished document (all scopes must be closed). */
    std::string take();

    /** Shortest decimal rendering of `number` that parses back
     *  bit-identically (strtod round-trip). */
    static std::string formatDouble(double number);

    /** Quote and escape a JSON string. */
    static std::string quote(const std::string &text);

  private:
    struct Scope {
        char kind;  ///< '{' or '['
        size_t items = 0;
        bool keyPending = false;
    };

    void beforeValue();
    void indent();

    std::string out_;
    std::vector<Scope> stack_;
};

} // namespace xser::telemetry

#endif // XSER_TELEMETRY_JSON_HH
