#include "common/config.hh"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <sstream>

#include "common/log.hh"

namespace wormnet
{

namespace
{

std::string
lowered(std::string s)
{
    std::transform(s.begin(), s.end(), s.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    return s;
}

} // namespace

Config
Config::parseArgs(int argc, const char *const *argv)
{
    Config cfg;
    for (int i = 0; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0) {
            cfg.positional_.push_back(arg);
            continue;
        }
        arg = arg.substr(2);
        const auto eq = arg.find('=');
        if (eq != std::string::npos) {
            cfg.set(arg.substr(0, eq), arg.substr(eq + 1));
        } else if (i + 1 < argc &&
                   std::string(argv[i + 1]).rfind("--", 0) != 0) {
            cfg.set(arg, argv[++i]);
        } else {
            cfg.set(arg, "true");
        }
    }
    return cfg;
}

Config
Config::parseString(const std::string &text)
{
    Config cfg;
    std::stringstream ss(text);
    std::string item;
    while (std::getline(ss, item, ',')) {
        if (item.empty())
            continue;
        const auto eq = item.find('=');
        if (eq == std::string::npos)
            cfg.set(item, "true");
        else
            cfg.set(item.substr(0, eq), item.substr(eq + 1));
    }
    return cfg;
}

void
Config::set(const std::string &key, const std::string &value)
{
    values_[key] = value;
}

bool
Config::has(const std::string &key) const
{
    return values_.count(key) != 0;
}

std::string
Config::getString(const std::string &key, const std::string &def) const
{
    const auto it = values_.find(key);
    return it == values_.end() ? def : it->second;
}

std::uint64_t
Config::getUint(const std::string &key, std::uint64_t def) const
{
    const auto it = values_.find(key);
    return it == values_.end() ? def : parseUintOption(key, it->second);
}

double
Config::getDouble(const std::string &key, double def) const
{
    const auto it = values_.find(key);
    return it == values_.end() ? def
                               : parseDoubleOption(key, it->second);
}

bool
Config::getBool(const std::string &key, bool def) const
{
    const auto it = values_.find(key);
    if (it == values_.end())
        return def;
    const std::string v = lowered(it->second);
    if (v == "true" || v == "1" || v == "yes" || v == "on")
        return true;
    if (v == "false" || v == "0" || v == "no" || v == "off")
        return false;
    fatal("option --", key, ": '", it->second, "' is not a boolean");
}

std::vector<std::string>
Config::keys() const
{
    std::vector<std::string> out;
    out.reserve(values_.size());
    for (const auto &kv : values_)
        out.push_back(kv.first);
    return out;
}

std::string
Config::toString() const
{
    std::ostringstream os;
    for (const auto &kv : values_)
        os << kv.first << '=' << kv.second << '\n';
    return os.str();
}

std::uint64_t
parseUintOption(const std::string &key, const std::string &text,
                std::uint64_t max)
{
    // from_chars takes no sign or whitespace and reports overflow
    // instead of wrapping.
    std::uint64_t v = 0;
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, v);
    if (ec == std::errc::result_out_of_range || (ec == std::errc() &&
                                                 ptr == end && v > max))
        fatal("option --", key, ": '", text, "' is out of range (max ",
              max, ")");
    if (ec != std::errc() || ptr != end)
        fatal("option --", key, ": '", text,
              "' is not a non-negative integer");
    return v;
}

double
parseDoubleOption(const std::string &key, const std::string &text)
{
    // strtod would skip leading whitespace and accept a sign, "inf",
    // "nan" and hex floats: only a digit or a '.' may start a value,
    // and no 'x' may follow.
    char *end = nullptr;
    double v = 0.0;
    if (!text.empty() &&
        (std::isdigit(static_cast<unsigned char>(text[0])) ||
         text[0] == '.') &&
        text.find_first_of("xX") == std::string::npos)
        v = std::strtod(text.c_str(), &end);
    if (end == nullptr || end == text.c_str() || *end != '\0')
        fatal("option --", key, ": '", text,
              "' is not a non-negative number");
    if (!std::isfinite(v))
        fatal("option --", key, ": '", text, "' is out of range");
    return v;
}

} // namespace wormnet
