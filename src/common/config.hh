/**
 * @file
 * A small typed key=value configuration store with command-line
 * parsing, used by example programs and bench harnesses to override
 * simulation parameters without recompiling.
 *
 * Accepted command-line forms: "--key value", "--key=value" and bare
 * "--flag" (stored as "true"). Unknown keys are kept; consumers decide
 * what is meaningful. Typed getters validate and convert on access and
 * call fatal() on malformed values, which matches gem5's "user errors
 * are fatal" convention.
 */

#ifndef WORMNET_COMMON_CONFIG_HH
#define WORMNET_COMMON_CONFIG_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace wormnet
{

/** Ordered string->string option store with typed access. */
class Config
{
  public:
    Config() = default;

    /**
     * Parse argv-style options. Positional (non "--") arguments are
     * collected separately and retrievable via positional().
     */
    static Config parseArgs(int argc, const char *const *argv);

    /** Parse "key=value,key2=value2" style compact strings. */
    static Config parseString(const std::string &text);

    /** Set (or overwrite) a key. */
    void set(const std::string &key, const std::string &value);

    /** @return true iff the key is present. */
    bool has(const std::string &key) const;

    /** String getter with default. */
    std::string getString(const std::string &key,
                          const std::string &def = "") const;

    /** Unsigned getter with default; parsed by parseUintOption(). */
    std::uint64_t getUint(const std::string &key,
                          std::uint64_t def = 0) const;

    /** Non-negative double getter with default; parsed by
     *  parseDoubleOption(). */
    double getDouble(const std::string &key, double def = 0.0) const;

    /**
     * Boolean getter with default. Accepts true/false/1/0/yes/no/on/off
     * (case-insensitive); fatal() otherwise.
     */
    bool getBool(const std::string &key, bool def = false) const;

    /** Positional arguments in order of appearance. */
    const std::vector<std::string> &positional() const
    {
        return positional_;
    }

    /** All keys, sorted, for diagnostics. */
    std::vector<std::string> keys() const;

    /** Render as "key=value" lines (sorted) for reproducibility logs. */
    std::string toString() const;

  private:
    std::map<std::string, std::string> values_;
    std::vector<std::string> positional_;
};

/**
 * The value of option --@p key: @p text as a decimal integer in
 * [0, @p max]. Digits only: fatal() on an empty or non-numeric value,
 * a sign, whitespace, trailing characters, or a value above @p max
 * (overflow included).
 */
std::uint64_t parseUintOption(const std::string &key,
                              const std::string &text,
                              std::uint64_t max = UINT64_MAX);

/**
 * The value of option --@p key: @p text as a finite, non-negative
 * decimal number ("0.25", "1e-5", ".5"). fatal() on an empty or
 * non-numeric value, a sign, whitespace, trailing characters, or
 * overflow.
 */
double parseDoubleOption(const std::string &key, const std::string &text);

} // namespace wormnet

#endif // WORMNET_COMMON_CONFIG_HH
