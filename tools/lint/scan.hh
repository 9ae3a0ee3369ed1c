/**
 * @file
 * Scanning, suppression, and baseline machinery for mda-lint.
 *
 * mda-lint is a std-only tokenizer engine: it blanks comments and
 * string literals (preserving line structure), tracks preprocessor
 * continuations, and matches identifier tokens. Everything that is
 * not rule logic lives here, shared by the per-file rules
 * (mda_lint.cc) and the whole-program pass (whole_program.cc):
 *
 *  - ScanFile / scanSource: the blanked-source representation;
 *  - Token / tokensOf: identifier tokenization per line;
 *  - MDA_LINT_ALLOW(rule): reason  parsing, matching, and usage
 *    tracking (an allow that suppresses nothing is *stale* and is
 *    itself reported, so suppressions cannot rot);
 *  - line-number-free baselines (RULE<TAB>file<TAB>key triples) with
 *    the same staleness discipline;
 *  - input collection.
 */

#ifndef MDA_TOOLS_LINT_SCAN_HH
#define MDA_TOOLS_LINT_SCAN_HH

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace mda::scan
{

namespace fs = std::filesystem;

// ---------------------------------------------------------------------
// Findings.

struct Finding
{
    std::string rule;    ///< Stable rule ID ("DET-1", "LIF-2", ...).
    std::string file;    ///< Path relative to --root when possible.
    int line = 0;        ///< 1-based.
    std::string key;     ///< Stable fingerprint detail for baselines.
    std::string message; ///< Human-readable description.
};

inline bool
findingBefore(const Finding &a, const Finding &b)
{
    if (a.file != b.file)
        return a.file < b.file;
    if (a.line != b.line)
        return a.line < b.line;
    if (a.rule != b.rule)
        return a.rule < b.rule;
    return a.key < b.key;
}

// ---------------------------------------------------------------------
// Scanned-file representation.

/** One MDA_LINT_ALLOW(<rule>): <reason> comment. */
struct Allow
{
    std::string rule;
    bool hasReason = false;

    /** Set when the allow suppressed at least one would-be finding.
     *  Mutable so const check passes can record usage; the staleness
     *  pass reads it afterwards. */
    mutable bool used = false;
};

/** A source file with comments/strings blanked and allows indexed. */
struct ScanFile
{
    std::string path;    ///< Path as opened.
    std::string relpath; ///< Relative to --root (used in reports).
    std::vector<std::string> code; ///< Blanked lines, 0-based.
    std::vector<bool> preproc;     ///< Directive or its continuation.
    std::map<int, std::vector<Allow>> allows; ///< 1-based line.
    bool isHeader = false;
};

/** Parse every MDA_LINT_ALLOW(<rule>)[: reason] in a comment. */
inline void
parseAllows(const std::string &comment, int line, ScanFile &sf)
{
    const std::string tag = "MDA_LINT_ALLOW";
    std::size_t pos = 0;
    while ((pos = comment.find(tag, pos)) != std::string::npos) {
        pos += tag.size();
        if (pos >= comment.size() || comment[pos] != '(')
            continue;
        std::size_t close = comment.find(')', pos);
        if (close == std::string::npos)
            break;
        Allow a;
        a.rule = comment.substr(pos + 1, close - pos - 1);
        std::size_t after = close + 1;
        while (after < comment.size() && std::isspace(
                   static_cast<unsigned char>(comment[after]))) {
            ++after;
        }
        if (after < comment.size() && comment[after] == ':') {
            ++after;
            while (after < comment.size() &&
                   std::isspace(
                       static_cast<unsigned char>(comment[after]))) {
                ++after;
            }
            a.hasReason = after < comment.size();
        }
        sf.allows[line].push_back(a);
        pos = close;
    }
}

/**
 * Blank comments, string literals, and char literals (preserving line
 * structure), record preprocessor lines (including backslash
 * continuations), and index MDA_LINT_ALLOW comments.
 */
inline void
scanSource(const std::string &text, ScanFile &sf)
{
    enum class St { Code, Line, Block, Str, Chr, Raw };
    St st = St::Code;
    std::string code_line, comment;
    std::string raw_delim; ///< Raw-string closing delimiter ")d\"".
    int line = 1;
    bool continuation = false;

    auto flushLine = [&]() {
        bool pp = continuation;
        std::size_t i = code_line.find_first_not_of(" \t");
        if (i != std::string::npos && code_line[i] == '#')
            pp = true;
        continuation = pp && !code_line.empty() &&
                       code_line.back() == '\\';
        sf.code.push_back(code_line);
        sf.preproc.push_back(pp);
        code_line.clear();
    };
    auto flushComment = [&]() {
        parseAllows(comment, line, sf);
        comment.clear();
    };

    for (std::size_t i = 0; i < text.size(); ++i) {
        char c = text[i];
        char next = i + 1 < text.size() ? text[i + 1] : '\0';
        if (c == '\n') {
            if (st == St::Line) {
                flushComment();
                st = St::Code;
            } else if (st == St::Block) {
                flushComment();
            }
            flushLine();
            ++line;
            continue;
        }
        switch (st) {
          case St::Code:
            if (c == '/' && next == '/') {
                st = St::Line;
                code_line += "  ";
                ++i;
            } else if (c == '/' && next == '*') {
                st = St::Block;
                code_line += "  ";
                ++i;
            } else if (c == '"' && i >= 1 && text[i - 1] == 'R') {
                // Raw string literal: R"delim( ... )delim"
                std::size_t paren = text.find('(', i);
                if (paren == std::string::npos) {
                    code_line += ' ';
                    break;
                }
                raw_delim = ")" + text.substr(i + 1, paren - i - 1) +
                            "\"";
                st = St::Raw;
                code_line += ' ';
            } else if (c == '"') {
                st = St::Str;
                code_line += ' ';
            } else if (c == '\'' &&
                       !(i >= 1 &&
                         (std::isalnum(
                              static_cast<unsigned char>(text[i - 1])) ||
                          text[i - 1] == '_'))) {
                // A quote after an identifier/number char is a C++14
                // digit separator (1'000), not a char literal.
                st = St::Chr;
                code_line += ' ';
            } else {
                code_line += c;
            }
            break;
          case St::Line:
          case St::Block:
            comment += c;
            code_line += ' ';
            if (st == St::Block && c == '*' && next == '/') {
                flushComment();
                st = St::Code;
                code_line += ' ';
                ++i;
            }
            break;
          case St::Str:
            code_line += ' ';
            if (c == '\\') {
                code_line += ' ';
                ++i;
            } else if (c == '"') {
                st = St::Code;
            }
            break;
          case St::Chr:
            code_line += ' ';
            if (c == '\\') {
                code_line += ' ';
                ++i;
            } else if (c == '\'') {
                st = St::Code;
            }
            break;
          case St::Raw:
            code_line += ' ';
            if (c == ')' && text.compare(i, raw_delim.size(),
                                         raw_delim) == 0) {
                for (std::size_t k = 1; k < raw_delim.size(); ++k)
                    code_line += ' ';
                i += raw_delim.size() - 1;
                st = St::Code;
            }
            break;
        }
    }
    if (st == St::Line || st == St::Block)
        flushComment();
    flushLine();
}

/** Read and scan @p path; returns false when unreadable. */
inline bool
loadScanFile(const std::string &path, const std::string &relpath,
             ScanFile &sf)
{
    std::ifstream in(path);
    if (!in)
        return false;
    std::stringstream ss;
    ss << in.rdbuf();
    sf.path = path;
    sf.relpath = relpath;
    std::string ext = fs::path(path).extension().string();
    sf.isHeader = ext == ".hh" || ext == ".h" || ext == ".hpp";
    scanSource(ss.str(), sf);
    return true;
}

// ---------------------------------------------------------------------
// Token helpers.

struct Token
{
    std::string text;
    std::size_t col; ///< 0-based start column in the blanked line.
};

inline std::vector<Token>
tokensOf(const std::string &line)
{
    std::vector<Token> out;
    std::size_t i = 0;
    while (i < line.size()) {
        char c = line[i];
        if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
            std::size_t j = i;
            while (j < line.size() &&
                   (std::isalnum(
                        static_cast<unsigned char>(line[j])) ||
                    line[j] == '_')) {
                ++j;
            }
            out.push_back({line.substr(i, j - i), i});
            i = j;
        } else {
            ++i;
        }
    }
    return out;
}

/** First non-space character at or after @p col; '\0' if none. */
inline char
nextCharAfter(const std::string &line, std::size_t col)
{
    while (col < line.size() &&
           std::isspace(static_cast<unsigned char>(line[col]))) {
        ++col;
    }
    return col < line.size() ? line[col] : '\0';
}

/**
 * First non-space character after @p col, looking across line breaks
 * (a call's open paren or first argument may start the next line).
 */
inline char
nextCharMultiline(const ScanFile &sf, std::size_t idx,
                  std::size_t col, std::size_t *out_idx = nullptr,
                  std::size_t *out_col = nullptr)
{
    for (std::size_t l = idx; l < sf.code.size() && l < idx + 3; ++l) {
        const std::string &s = sf.code[l];
        std::size_t c = l == idx ? col : 0;
        while (c < s.size() &&
               std::isspace(static_cast<unsigned char>(s[c]))) {
            ++c;
        }
        if (c < s.size()) {
            if (out_idx)
                *out_idx = l;
            if (out_col)
                *out_col = c;
            return s[c];
        }
    }
    return '\0';
}

// ---------------------------------------------------------------------
// Suppression: lookup, usage tracking, staleness.

/**
 * Find a reasoned allow for @p rule covering @p line (1-based): on
 * the same line or in the comment block directly above (walking up
 * through comment-only/blank lines). Does NOT mark the allow used —
 * callers that are certain a finding is being suppressed use
 * allowed() instead.
 */
inline const Allow *
findAllow(const ScanFile &sf, int line, const std::string &rule)
{
    auto match = [&](int l) -> const Allow * {
        auto it = sf.allows.find(l);
        if (it == sf.allows.end())
            return nullptr;
        for (const Allow &a : it->second) {
            if (a.rule == rule && a.hasReason)
                return &a;
        }
        return nullptr;
    };
    if (const Allow *a = match(line))
        return a;
    for (int l = line - 1; l >= 1; --l) {
        if (const Allow *a = match(l))
            return a;
        if (l - 1 < static_cast<int>(sf.code.size())) {
            const std::string &code = sf.code[l - 1];
            if (code.find_first_not_of(" \t") != std::string::npos)
                break; // A real code line ends the adjacent block.
        }
    }
    return nullptr;
}

/**
 * True when a reasoned allow covers (@p line, @p rule); marks the
 * allow used. Call only when a finding would otherwise be reported,
 * so the staleness pass can tell live suppressions from rotten ones.
 */
inline bool
allowed(const ScanFile &sf, int line, const std::string &rule)
{
    if (const Allow *a = findAllow(sf, line, rule)) {
        a->used = true;
        return true;
    }
    return false;
}

/**
 * Staleness pass: report every allow that never suppressed anything,
 * every allow without a reason, and every allow naming a rule outside
 * @p suppressible. SUP-1 findings are not themselves suppressible.
 */
inline void
appendStaleAllowFindings(const std::vector<ScanFile> &files,
                         const std::set<std::string> &suppressible,
                         std::vector<Finding> &findings)
{
    for (const ScanFile &sf : files) {
        for (const auto &[line, list] : sf.allows) {
            for (const Allow &a : list) {
                if (!suppressible.count(a.rule)) {
                    findings.push_back(
                        {"SUP-1", sf.relpath, line, a.rule,
                         "MDA_LINT_ALLOW(" + a.rule + ") names no "
                         "known rule; fix the rule ID or delete the "
                         "annotation"});
                    continue;
                }
                if (!a.hasReason) {
                    findings.push_back(
                        {"SUP-1", sf.relpath, line, a.rule,
                         "MDA_LINT_ALLOW(" + a.rule + ") without a "
                         "reason suppresses nothing; state why the "
                         "finding is acceptable after a colon"});
                    continue;
                }
                if (!a.used) {
                    findings.push_back(
                        {"SUP-1", sf.relpath, line, a.rule,
                         "stale suppression: MDA_LINT_ALLOW(" +
                             a.rule + ") matches no current finding; "
                             "delete it so suppressions cannot rot"});
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Input collection.

inline bool
lintableExtension(const fs::path &p)
{
    std::string ext = p.extension().string();
    return ext == ".cc" || ext == ".cpp" || ext == ".hh" ||
           ext == ".h" || ext == ".hpp";
}

inline std::string
relativeTo(const fs::path &root, const fs::path &p)
{
    std::error_code ec;
    fs::path abs = fs::weakly_canonical(p, ec);
    if (ec)
        abs = p;
    fs::path rootc = fs::weakly_canonical(root, ec);
    if (ec)
        rootc = root;
    fs::path rel = abs.lexically_relative(rootc);
    if (rel.empty() || *rel.begin() == "..")
        return p.generic_string();
    return rel.generic_string();
}

/**
 * Collect the sorted, deduplicated file set from explicit inputs
 * (files or directories, walked recursively). Returns false (after a
 * diagnostic) when an input does not exist.
 */
inline bool
collectInputs(const fs::path &root,
              const std::vector<std::string> &inputs,
              std::set<std::string> &files)
{
    auto addFile = [&](const fs::path &p) {
        if (lintableExtension(p))
            files.insert((root / relativeTo(root, p)).generic_string());
    };
    for (const std::string &input : inputs) {
        fs::path p = input;
        std::error_code ec;
        if (fs::is_directory(p, ec)) {
            for (auto it = fs::recursive_directory_iterator(p, ec);
                 !ec && it != fs::recursive_directory_iterator();
                 ++it) {
                if (it->is_regular_file())
                    addFile(it->path());
            }
        } else if (fs::is_regular_file(p, ec)) {
            addFile(p);
        } else {
            std::cerr << "mda-lint: no such file or directory: "
                      << input << "\n";
            return false;
        }
    }
    return true;
}

// ---------------------------------------------------------------------
// Baseline files: "RULE<TAB>file<TAB>key" triples.

inline std::set<std::string>
loadBaseline(const std::string &path)
{
    std::set<std::string> out;
    std::ifstream in(path);
    if (!in) {
        std::cerr << "mda-lint: cannot open baseline: " << path
                  << "\n";
        std::exit(2);
    }
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        out.insert(line);
    }
    return out;
}

inline std::string
baselineKey(const Finding &f)
{
    return f.rule + "\t" + f.file + "\t" + f.key;
}

inline void
writeBaseline(const std::string &path,
              const std::vector<Finding> &findings)
{
    std::ofstream out(path);
    out << "# mda-lint baseline: RULE<TAB>file<TAB>key triples.\n"
           "# Findings listed here are grandfathered; refresh\n"
           "# with --write-baseline (see ci/LINT.md).\n";
    std::set<std::string> keys;
    for (const Finding &f : findings) {
        if (f.rule != "SUP-1") // Staleness is never grandfathered.
            keys.insert(baselineKey(f));
    }
    for (const std::string &k : keys)
        out << k << "\n";
}

/**
 * Report findings against @p baseline and flag stale baseline
 * entries. Returns the process exit code: 0 clean, 1 findings or
 * stale entries. Fresh findings print as "<file>:<line>: [RULE] msg";
 * stale baseline entries error loudly instead of silently passing.
 */
inline int
reportFindings(const std::vector<Finding> &findings,
               const std::set<std::string> &baseline,
               std::size_t fileCount)
{
    int fresh = 0, grandfathered = 0;
    std::set<std::string> usedBaseline;
    for (const Finding &f : findings) {
        std::string key = baselineKey(f);
        if (f.rule != "SUP-1" && baseline.count(key)) {
            ++grandfathered;
            usedBaseline.insert(key);
            continue;
        }
        ++fresh;
        std::cout << f.file << ":" << f.line << ": [" << f.rule
                  << "] " << f.message << "\n";
    }

    int staleBaseline = 0;
    for (const std::string &entry : baseline) {
        if (usedBaseline.count(entry))
            continue;
        ++staleBaseline;
        std::cout << "mda-lint: stale baseline entry (matches no "
                  << "current finding; delete it): " << entry << "\n";
    }

    if (fresh > 0 || staleBaseline > 0) {
        std::cout << "mda-lint: " << fresh << " finding(s)";
        if (grandfathered)
            std::cout << " (+" << grandfathered << " in baseline)";
        if (staleBaseline)
            std::cout << ", " << staleBaseline
                      << " stale baseline entr"
                      << (staleBaseline == 1 ? "y" : "ies");
        std::cout << " in " << fileCount << " file(s)\n";
        return 1;
    }
    std::cout << "mda-lint: clean (" << fileCount << " file(s)";
    if (grandfathered)
        std::cout << ", " << grandfathered << " baseline-suppressed";
    std::cout << ")\n";
    return 0;
}

} // namespace mda::scan

#endif // MDA_TOOLS_LINT_SCAN_HH
