/**
 * @file
 * mda-lint's whole-program pass: the LIF (packet lifecycle) and CONC
 * (concurrency discipline) rules, run over every scanned file at once.
 */

#ifndef MDA_TOOLS_LINT_WHOLE_PROGRAM_HH
#define MDA_TOOLS_LINT_WHOLE_PROGRAM_HH

#include <vector>

#include "scan.hh"

namespace mda::lint
{

/**
 * Run LIF-1/2/3 and CONC-1/2/3 over @p files (release summaries cross
 * files) and append every finding no reasoned allow waives.
 */
void checkWholeProgram(const std::vector<scan::ScanFile> &files,
                       std::vector<scan::Finding> &findings);

} // namespace mda::lint

#endif // MDA_TOOLS_LINT_WHOLE_PROGRAM_HH
