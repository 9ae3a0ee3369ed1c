/**
 * @file
 * Checked parsing of numeric command-line values, shared by the
 * simulator front end and the bench binaries.
 */

#ifndef MDA_HARNESS_CLI_HH
#define MDA_HARNESS_CLI_HH

#include <charconv>
#include <string>
#include <system_error>

#include "sim/logging.hh"

namespace mda::cli
{

/**
 * The value of option @p option given as @p text: the whole text must
 * be a number of type T in range, or the run stops with
 * fatal("bad value for <option>: '<text>'").
 */
template <typename T>
T
parseNumber(const std::string &option, const std::string &text)
{
    T value{};
    const char *end = text.data() + text.size();
    auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (text.empty() || ec != std::errc() || ptr != end)
        fatal("bad value for %s: '%s'", option.c_str(), text.c_str());
    return value;
}

} // namespace mda::cli

#endif // MDA_HARNESS_CLI_HH
