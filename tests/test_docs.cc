/**
 * @file
 * Doc-drift gates: README.md's experiment table and the `mtdae list`
 * registry must name exactly the same experiments, and
 * docs/POLICIES.md's policy-reference table and `allPolicies()` must
 * name exactly the same policies — in both directions each — so a new
 * experiment or policy cannot ship undocumented and the docs cannot
 * advertise one that no longer exists. The same regime covers the
 * kernel DSL: docs/KERNEL_DSL.md's keyword table must equal
 * dsl::dslKeywords() and its corpus table must equal the actual
 * examples/kernels/ directory listing, both directions each. And
 * docs/ARCHITECTURE.md's knob table must list exactly the members of
 * knobs(), each with its CLI key and range.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/config.hh"
#include "harness/cli.hh"
#include "workload/dsl/lexer.hh"

namespace mtdae {
namespace {

std::string
docText(const std::string &relpath)
{
    const std::string path =
        std::string(MTDAE_SOURCE_DIR) + "/" + relpath;
    std::ifstream is(path);
    EXPECT_TRUE(is.good()) << "cannot open " << path;
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

std::string
readmeText()
{
    return docText("README.md");
}

std::string
policiesText()
{
    return docText("docs/POLICIES.md");
}

/**
 * First backtick-quoted token of each table row of the first table
 * after the @p heading line in @p text (the README-experiments /
 * POLICIES-reference table shape).
 */
std::set<std::string>
tableNames(const std::string &text, const std::string &heading)
{
    std::set<std::string> names;
    std::istringstream is(text);
    std::string line;
    bool in_section = false;
    bool in_table = false;
    while (std::getline(is, line)) {
        if (line.rfind(heading, 0) == 0) {
            in_section = true;
            continue;
        }
        if (!in_section)
            continue;
        const bool table_line = line.rfind("|", 0) == 0;
        if (in_table && !table_line)
            break;  // only the section's first table lists names
        if (table_line)
            in_table = true;
        if (line.rfind("| `", 0) != 0)
            continue;  // header / separator row
        const std::size_t open = line.find('`');
        const std::size_t close = line.find('`', open + 1);
        if (close != std::string::npos)
            names.insert(line.substr(open + 1, close - open - 1));
    }
    return names;
}

std::set<std::string>
readmeExperiments()
{
    return tableNames(readmeText(), "### Experiments");
}

std::set<std::string>
policiesTableNames()
{
    return tableNames(policiesText(), "## Policy reference");
}

std::set<std::string>
registeredExperiments()
{
    std::set<std::string> names;
    for (const auto &e : cli::experiments())
        names.insert(e.name);
    return names;
}

TEST(DocDrift, ReadmeHasAnExperimentTable)
{
    EXPECT_FALSE(readmeExperiments().empty())
        << "README.md lost its '### Experiments' table";
}

TEST(DocDrift, EveryRegisteredExperimentIsInTheReadmeTable)
{
    const auto documented = readmeExperiments();
    for (const auto &name : registeredExperiments())
        EXPECT_TRUE(documented.count(name))
            << "'" << name << "' is registered (mtdae list) but "
            << "missing from README.md's experiment table";
}

TEST(DocDrift, EveryReadmeTableRowNamesARegisteredExperiment)
{
    const auto registered = registeredExperiments();
    for (const auto &name : readmeExperiments())
        EXPECT_TRUE(registered.count(name))
            << "README.md documents '" << name
            << "' but mtdae does not register it";
}

TEST(DocDrift, ReadmeDocumentsThePolicyFlags)
{
    // The headline knobs of the arbitration layer must stay findable.
    const std::string text = readmeText();
    EXPECT_NE(text.find("--fetch-policy"), std::string::npos);
    EXPECT_NE(text.find("--issue-policy"), std::string::npos);
    EXPECT_NE(text.find("ablate-policy"), std::string::npos);
}

TEST(DocDrift, ReadmeDocumentsTheGatingLayer)
{
    // The gating tentpole's user surface: the experiment (also locked
    // by the table tests above, since ablate-gating is registered),
    // the policy names, and the cookbook section.
    const std::string text = readmeText();
    EXPECT_NE(text.find("ablate-gating"), std::string::npos);
    EXPECT_NE(text.find("`stall`"), std::string::npos);
    EXPECT_NE(text.find("`flush`"), std::string::npos);
    EXPECT_NE(text.find("`split`"), std::string::npos);
    EXPECT_NE(text.find("Choosing a policy"), std::string::npos);
    EXPECT_NE(text.find("docs/POLICIES.md"), std::string::npos);
}

TEST(DocDrift, ReadmeDocumentsTheQosLayer)
{
    // The QoS tentpole's user surface: the weight and threshold flags,
    // the policy names, and the benchmark that measures their cost.
    // (ablate-qos itself is locked by the registry <-> experiment-table
    // tests above.)
    const std::string text = readmeText();
    EXPECT_NE(text.find("--thread-weights"), std::string::npos);
    EXPECT_NE(text.find("--adaptive-threshold"), std::string::npos);
    EXPECT_NE(text.find("`weighted`"), std::string::npos);
    EXPECT_NE(text.find("`adaptive`"), std::string::npos);
    EXPECT_NE(text.find("fair_hmean"), std::string::npos);
    EXPECT_NE(text.find("perfbench/run.py"), std::string::npos);
}

TEST(DocDrift, PoliciesDocCoversTheQosAndStabilityContract)
{
    // docs/POLICIES.md must keep the QoS section and the veto-stability
    // contract findable: these document the invariants test_qos.cc and
    // the idle fast-forward byte-identity suites enforce.
    const std::string text = policiesText();
    EXPECT_NE(text.find("## QoS weights and fairness metrics"),
              std::string::npos);
    EXPECT_NE(text.find("vetoStable"), std::string::npos);
    EXPECT_NE(text.find("missWindowUniform"), std::string::npos);
    EXPECT_NE(text.find("--adaptive-threshold"), std::string::npos);
    EXPECT_NE(text.find("fair_maxmin"), std::string::npos);
}

TEST(DocDrift, PoliciesDocHasAReferenceTable)
{
    EXPECT_FALSE(policiesTableNames().empty())
        << "docs/POLICIES.md lost its '## Policy reference' table";
}

TEST(DocDrift, EveryRegisteredPolicyIsInThePoliciesTable)
{
    const auto documented = policiesTableNames();
    for (const PolicyKind k : allPolicies())
        EXPECT_TRUE(documented.count(policyName(k)))
            << "policy '" << policyName(k) << "' (allPolicies) is "
            << "missing from docs/POLICIES.md's reference table";
}

TEST(DocDrift, EveryPoliciesTableRowNamesARegisteredPolicy)
{
    std::set<std::string> registered;
    for (const PolicyKind k : allPolicies())
        registered.insert(policyName(k));
    for (const auto &name : policiesTableNames())
        EXPECT_TRUE(registered.count(name))
            << "docs/POLICIES.md documents policy '" << name
            << "' but allPolicies() does not register it";
}

TEST(DocDrift, PoliciesDocCoversTheContracts)
{
    // The sections the policy layer's API guide exists to provide.
    const std::string text = policiesText();
    EXPECT_NE(text.find("mayFetch"), std::string::npos);
    EXPECT_NE(text.find("shouldFlush"), std::string::npos);
    EXPECT_NE(text.find("determinism contract"), std::string::npos);
    EXPECT_NE(text.find("iqOccupancyWindow"), std::string::npos);
    EXPECT_NE(text.find("Writing your own policy"), std::string::npos);
}

TEST(DocDrift, ArchitectureDocTracksTheGatingHooks)
{
    const std::string text = docText("docs/ARCHITECTURE.md");
    EXPECT_NE(text.find("mayFetch"), std::string::npos);
    EXPECT_NE(text.find("shouldFlush"), std::string::npos);
    EXPECT_NE(text.find("`split`"), std::string::npos);
    EXPECT_NE(text.find("ablate-gating"), std::string::npos);
}

// ---------------------------------------------------------------------
// The knob table.
// ---------------------------------------------------------------------

/** One row of docs/ARCHITECTURE.md's knob table. */
struct KnobRow
{
    std::string key;    ///< The CLI key, without "--".
    std::string range;  ///< The range cell.
};

/** docs/ARCHITECTURE.md's knob table, by SimConfig member. */
std::map<std::string, KnobRow>
knobRows()
{
    std::map<std::string, KnobRow> rows;
    std::istringstream is(docText("docs/ARCHITECTURE.md"));
    std::string line;
    bool in_section = false;
    while (std::getline(is, line)) {
        if (line.rfind("## ", 0) == 0)
            in_section = line.rfind("## Configuration knobs", 0) == 0;
        if (!in_section || line.rfind("| `", 0) != 0)
            continue;
        // | `member` (`--key`...) | default | range | meaning |
        std::vector<std::string> cells, quoted;
        std::istringstream cs(line);
        for (std::string cell; std::getline(cs, cell, '|');)
            cells.push_back(cell);
        std::istringstream qs(cells.at(1));
        for (std::string part; std::getline(qs, part, '`');)
            quoted.push_back(part);
        // quoted: " ", member, " (", "--key", ...
        rows[quoted.at(1)] = {quoted.at(3).substr(2), cells.at(3)};
    }
    return rows;
}

TEST(DocDrift, EveryKnobHasAnArchitectureRowWithItsKeyAndRange)
{
    const auto rows = knobRows();
    for (const Knob &k : knobs()) {
        const auto it = rows.find(k.member);
        ASSERT_NE(it, rows.end())
            << k.member << " is missing from docs/ARCHITECTURE.md";
        EXPECT_EQ(it->second.key, k.key) << k.member;
        // A number or a list: its range, spelled out first in the cell.
        const std::string range =
            std::to_string(k.min) + ".." + std::to_string(k.max);
        if (k.max > k.min) {
            EXPECT_EQ(it->second.range.find(range), 1u)
                << k.member << ": '" << it->second.range << "'";
        }
    }
}

TEST(DocDrift, EveryArchitectureKnobRowNamesAKnob)
{
    std::set<std::string> members;
    for (const Knob &k : knobs())
        members.insert(k.member);
    const auto rows = knobRows();
    EXPECT_FALSE(rows.empty());
    for (const auto &[member, row] : rows)
        EXPECT_TRUE(members.count(member))
            << "docs/ARCHITECTURE.md documents '" << member
            << "', which no knob declares";
}

// ---------------------------------------------------------------------
// Kernel-DSL documentation.
// ---------------------------------------------------------------------

std::string
dslDocText()
{
    return docText("docs/KERNEL_DSL.md");
}

std::set<std::string>
corpusKernelFiles()
{
    const std::filesystem::path dir =
        std::filesystem::path(MTDAE_SOURCE_DIR) / "examples" / "kernels";
    std::set<std::string> names;
    for (const auto &entry : std::filesystem::directory_iterator(dir))
        if (entry.path().extension() == ".mk")
            names.insert(entry.path().stem().string());
    return names;
}

TEST(DocDrift, DslDocHasAKeywordTable)
{
    EXPECT_FALSE(tableNames(dslDocText(), "### Keywords").empty())
        << "docs/KERNEL_DSL.md lost its '### Keywords' table";
}

TEST(DocDrift, EveryDslKeywordIsInTheDocTable)
{
    const auto documented = tableNames(dslDocText(), "### Keywords");
    for (const auto &word : dsl::dslKeywords())
        EXPECT_TRUE(documented.count(word))
            << "DSL keyword '" << word << "' (dslKeywords) is missing "
            << "from docs/KERNEL_DSL.md's keyword table";
}

TEST(DocDrift, EveryDslDocKeywordRowIsAReservedWord)
{
    for (const auto &word : tableNames(dslDocText(), "### Keywords"))
        EXPECT_TRUE(dsl::isDslKeyword(word))
            << "docs/KERNEL_DSL.md documents keyword '" << word
            << "' but the lexer does not reserve it";
}

TEST(DocDrift, DslDocListsTheWholeKernelCorpus)
{
    const auto documented = tableNames(dslDocText(), "## Kernel corpus");
    for (const auto &name : corpusKernelFiles())
        EXPECT_TRUE(documented.count(name))
            << "examples/kernels/" << name << ".mk exists but is "
            << "missing from docs/KERNEL_DSL.md's corpus table";
}

TEST(DocDrift, EveryDslDocCorpusRowHasAKernelFile)
{
    const auto files = corpusKernelFiles();
    EXPECT_FALSE(files.empty());
    for (const auto &name : tableNames(dslDocText(), "## Kernel corpus"))
        EXPECT_TRUE(files.count(name))
            << "docs/KERNEL_DSL.md's corpus table lists '" << name
            << "' but examples/kernels/" << name << ".mk does not exist";
}

TEST(DocDrift, DslDocCoversTheContracts)
{
    // The sections the DSL guide exists to provide: grammar, sweepable
    // params, the determinism promise, and the worked example.
    const std::string text = dslDocText();
    EXPECT_NE(text.find("```ebnf"), std::string::npos);
    EXPECT_NE(text.find("--kernel-file"), std::string::npos);
    EXPECT_NE(text.find("--kernel-param"), std::string::npos);
    EXPECT_NE(text.find("byte-identical"), std::string::npos);
    EXPECT_NE(text.find("Worked example: pointer chase"), std::string::npos);
    EXPECT_NE(text.find("chain("), std::string::npos);
}

TEST(DocDrift, ReadmeDocumentsTheDslSurface)
{
    // ablate-dsl itself is locked by the experiment-table tests above;
    // the flags and the doc pointer must stay findable too.
    const std::string text = readmeText();
    EXPECT_NE(text.find("--kernel-file"), std::string::npos);
    EXPECT_NE(text.find("--kernel-param"), std::string::npos);
    EXPECT_NE(text.find("docs/KERNEL_DSL.md"), std::string::npos);
    EXPECT_NE(text.find("examples/kernels"), std::string::npos);
}

} // namespace
} // namespace mtdae
