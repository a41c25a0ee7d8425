/**
 * @file
 * Golden analysis digests: reading and writing tests/golden/ files.
 *
 * A golden file pins analysis results as FNV-1a 64 digests, one
 * line per input:
 *
 *     # comment
 *     <key> <16 lowercase hex digits>
 *
 * The key is everything before the last space.  For a session the
 * digest covers engine::serializeSessionAnalysis bytes, so any
 * change to any analysis result, or to the serialized layout, moves
 * it.  The files were frozen from the node-tree reference analysis
 * before it was deleted; every analysis path must keep reproducing
 * them.  A deliberate format change is re-frozen by pasting the
 * actual lines a failing check prints (formatGoldenFile).
 */

#ifndef LAG_TESTS_GOLDEN_HH
#define LAG_TESTS_GOLDEN_HH

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "engine/result_cache.hh"
#include "util/hash.hh"

namespace lag::test
{

/** Ordered (key, digest) pairs: one golden file's worth. */
using GoldenDigests = std::vector<std::pair<std::string, std::uint64_t>>;

/** Digest of one session's analysis (its serialized bytes). */
inline std::uint64_t
analysisDigest(const engine::SessionAnalysis &analysis)
{
    return fnv1a(engine::serializeSessionAnalysis(analysis));
}

/** 16 lowercase hex digits. */
inline std::string
digestHex(std::uint64_t digest)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(digest));
    return buf;
}

/** Parse a golden file into key -> hex digest; empty when the file
 * is missing.  Blank and '#' lines are skipped. */
inline std::map<std::string, std::string>
readGoldenFile(const std::string &path)
{
    std::map<std::string, std::string> out;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        const std::size_t space = line.rfind(' ');
        if (space == std::string::npos)
            continue;
        out[line.substr(0, space)] = line.substr(space + 1);
    }
    return out;
}

/** Render @p digests in golden-file form, ready to paste. */
inline std::string
formatGoldenFile(const GoldenDigests &digests)
{
    std::string out;
    for (const auto &[key, digest] : digests)
        out += key + " " + digestHex(digest) + "\n";
    return out;
}

/** Keys of @p actual whose digest is missing from, or differs
 * from, @p golden, followed by golden keys @p actual lacks. */
inline std::vector<std::string>
goldenMismatches(const std::map<std::string, std::string> &golden,
                 const GoldenDigests &actual)
{
    std::vector<std::string> bad;
    std::set<std::string> seen;
    for (const auto &[key, digest] : actual) {
        seen.insert(key);
        const auto it = golden.find(key);
        if (it == golden.end() || it->second != digestHex(digest))
            bad.push_back(key);
    }
    for (const auto &[key, hex] : golden) {
        if (!seen.count(key))
            bad.push_back(key + " (not produced)");
    }
    return bad;
}

} // namespace lag::test

#endif // LAG_TESTS_GOLDEN_HH
