/**
 * @file
 * Tests for xser-lint, the determinism & soundness analyzer: fixture
 * snippets exercising every rule (positive hit, sanctioned site,
 * allowlisted hit, clean file), allowlist parsing and staleness, and a
 * scan of the real source tree that must come back clean -- making the
 * determinism contract itself a tier-1 test.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "lint/facts.hh"
#include "lint/lint.hh"
#include "lint/token.hh"

namespace xser::lint {
namespace {

namespace fs = std::filesystem;

/** All diagnostics for a snippet pretending to live at `path`. */
std::vector<Diagnostic>
lint(const std::string &path, const std::string &source)
{
    return lintSource(path, source);
}

/** Count diagnostics for one rule. */
size_t
countRule(const std::vector<Diagnostic> &diags, const std::string &rule)
{
    size_t n = 0;
    for (const auto &diag : diags)
        if (diag.rule == rule)
            ++n;
    return n;
}

// --------------------------------------------------------------------
// Rule: wallclock
// --------------------------------------------------------------------

TEST(LintWallclock, FlagsGetenvInCore)
{
    const auto diags =
        lint("src/core/bad.cc",
             "const char *v = std::getenv(\"HOME\");\n");
    ASSERT_EQ(countRule(diags, "wallclock"), 1u);
    EXPECT_EQ(diags[0].token, "getenv");
    EXPECT_EQ(diags[0].line, 1);
}

TEST(LintWallclock, FlagsSystemClockAndChronoInclude)
{
    const auto diags =
        lint("src/sim/bad.cc",
             "#include <chrono>\n"
             "auto t = std::chrono::system_clock::now();\n");
    EXPECT_EQ(countRule(diags, "wallclock"), 2u);
}

TEST(LintWallclock, CliIsSanctioned)
{
    const auto diags =
        lint("src/cli/args.cc",
             "const char *v = std::getenv(\"XSER_JOBS\");\n");
    EXPECT_EQ(countRule(diags, "wallclock"), 0u);
}

TEST(LintWallclock, MemberNamedClockIsNotFlagged)
{
    const auto diags =
        lint("src/core/ok.cc",
             "Tick t = platform.clock().now();\n"
             "SimClock &clock() { return clock_; }\n");
    EXPECT_EQ(countRule(diags, "wallclock"), 0u);
}

TEST(LintWallclock, StdTimeIsFlagged)
{
    const auto diags =
        lint("src/core/bad.cc", "auto t = std::time(nullptr);\n");
    ASSERT_EQ(countRule(diags, "wallclock"), 1u);
    EXPECT_EQ(diags[0].token, "time");
}

TEST(LintWallclock, BannedNameInCommentOrStringIsIgnored)
{
    const auto diags =
        lint("src/core/ok.cc",
             "// getenv and system_clock are banned here\n"
             "const char *msg = \"never call getenv\";\n"
             "/* std::chrono::steady_clock too */\n");
    EXPECT_TRUE(diags.empty());
}

// --------------------------------------------------------------------
// Rule: raw-rng
// --------------------------------------------------------------------

TEST(LintRawRng, FlagsSeededMt19937InCore)
{
    // The canonical seeded violation: a stray engine in src/core.
    const auto diags =
        lint("src/core/bad.cc", "std::mt19937 gen(42);\n");
    ASSERT_EQ(countRule(diags, "raw-rng"), 1u);
    EXPECT_EQ(diags[0].token, "mt19937");
}

TEST(LintRawRng, FlagsRandomDeviceAndRandomInclude)
{
    const auto diags =
        lint("src/rad/bad.cc",
             "#include <random>\n"
             "std::random_device rd;\n"
             "unsigned x = rand();\n");
    EXPECT_EQ(countRule(diags, "raw-rng"), 3u);
}

TEST(LintRawRng, RngImplementationIsSanctioned)
{
    const auto diags =
        lint("src/sim/rng.cc", "std::minstd_rand fallback;\n");
    EXPECT_EQ(countRule(diags, "raw-rng"), 0u);
}

TEST(LintRawRng, MemberRandAndDeclarationsAreNotFlagged)
{
    const auto diags =
        lint("src/core/ok.cc",
             "uint64_t v = rng.rand();\n"    // member access
             "uint64_t rand(State *s);\n"    // declaration
             "double x = object->rand();\n"); // member via pointer
    EXPECT_EQ(countRule(diags, "raw-rng"), 0u);
}

// --------------------------------------------------------------------
// Rules: unordered-decl / unordered-iter
// --------------------------------------------------------------------

TEST(LintUnordered, FlagsDeclarationInOrderSensitiveDirs)
{
    const auto diags =
        lint("src/core/bad.hh",
             "#ifndef A\n#define A\n"
             "#include <unordered_map>\n"
             "std::unordered_map<int, double> totals_;\n"
             "#endif\n");
    EXPECT_EQ(countRule(diags, "unordered-decl"), 1u);
}

TEST(LintUnordered, FlagsRangeForAndIteratorWalks)
{
    const auto diags =
        lint("src/rad/bad.cc",
             "std::unordered_map<int, double> rates;\n"
             "double sum = 0;\n"
             "for (const auto &kv : rates)\n"
             "    sum += kv.second;\n"
             "auto it = rates.begin();\n");
    EXPECT_EQ(countRule(diags, "unordered-decl"), 1u);
    EXPECT_EQ(countRule(diags, "unordered-iter"), 2u);
}

TEST(LintUnordered, PointLookupsAreNotIteration)
{
    const auto diags =
        lint("src/mem/ok.cc",
             "std::unordered_map<uint64_t, int> pages;\n"
             "pages[addr] = 1;\n"
             "pages.clear();\n"
             "auto hit = pages.find(addr);\n");
    EXPECT_EQ(countRule(diags, "unordered-iter"), 0u);
    EXPECT_EQ(countRule(diags, "unordered-decl"), 1u);
}

TEST(LintUnordered, OtherDirectoriesAreUnrestricted)
{
    const auto diags =
        lint("tools/lint/ok.cc",
             "std::unordered_set<std::string> names;\n"
             "for (const auto &n : names) { use(n); }\n");
    EXPECT_EQ(countRule(diags, "unordered-decl"), 0u);
    EXPECT_EQ(countRule(diags, "unordered-iter"), 0u);
}

// --------------------------------------------------------------------
// Rules: header-guard / header-using-namespace
// --------------------------------------------------------------------

TEST(LintHeader, FlagsMissingGuard)
{
    const auto diags =
        lint("src/volt/bad.hh", "int f();\n");
    EXPECT_EQ(countRule(diags, "header-guard"), 1u);
}

TEST(LintHeader, AcceptsIfndefGuardAndPragmaOnce)
{
    const auto guarded =
        lint("src/volt/ok.hh",
             "#ifndef XSER_VOLT_OK_HH\n#define XSER_VOLT_OK_HH\n"
             "int f();\n#endif\n");
    EXPECT_EQ(countRule(guarded, "header-guard"), 0u);
    const auto pragma_once =
        lint("src/volt/ok2.hh", "#pragma once\nint f();\n");
    EXPECT_EQ(countRule(pragma_once, "header-guard"), 0u);
}

TEST(LintHeader, FlagsUsingNamespaceInHeaderOnly)
{
    const auto header =
        lint("src/ecc/bad.hh",
             "#pragma once\nusing namespace std;\n");
    EXPECT_EQ(countRule(header, "header-using-namespace"), 1u);
    const auto source =
        lint("tools/lint/main.cc", "using namespace xser;\n");
    EXPECT_EQ(countRule(source, "header-using-namespace"), 0u);
}

// --------------------------------------------------------------------
// Rule: parallel-fanin
// --------------------------------------------------------------------

TEST(LintFanIn, FlagsThreadingOutsideParallelCampaign)
{
    const auto diags =
        lint("src/mem/bad.cc",
             "std::thread worker([] {});\n"
             "std::atomic<double> total{0.0};\n"
             "std::mutex lock_;\n");
    EXPECT_EQ(countRule(diags, "parallel-fanin"), 3u);
}

TEST(LintFanIn, ParallelCampaignIsSanctioned)
{
    const auto diags =
        lint("src/core/parallel_campaign.cc",
             "std::thread worker([] {});\n"
             "std::atomic<size_t> cursor{0};\n");
    EXPECT_EQ(countRule(diags, "parallel-fanin"), 0u);
}

TEST(LintFanIn, HardwareConcurrencyIsExempt)
{
    const auto diags =
        lint("src/cli/args.cc",
             "unsigned n = std::thread::hardware_concurrency();\n");
    EXPECT_EQ(countRule(diags, "parallel-fanin"), 0u);
}

TEST(LintFanIn, FlagsOmpPragma)
{
    const auto diags =
        lint("src/stats/bad.cc",
             "#pragma omp parallel for reduction(+ : sum)\n"
             "for (int i = 0; i < n; ++i) sum += x[i];\n");
    EXPECT_EQ(countRule(diags, "parallel-fanin"), 1u);
}

TEST(LintFanIn, UnqualifiedNamesAreNotFlagged)
{
    // Locals that merely share a name with a threading primitive.
    const auto diags =
        lint("src/volt/ok.cc",
             "int atomic = 3;\nint mutex = atomic + 1;\n");
    EXPECT_EQ(countRule(diags, "parallel-fanin"), 0u);
}

// --------------------------------------------------------------------
// Rule: codec-confinement
// --------------------------------------------------------------------

TEST(LintCodec, FlagsFnvConstantsOutsideTheSharedHash)
{
    const auto diags =
        lint("src/core/bad.cc",
             "uint64_t h = 0xcbf29ce484222325ULL;\n"
             "h *= 0x100000001B3ull;\n"
             "uint64_t d = 14695981039346656037u;\n");
    EXPECT_EQ(countRule(diags, "codec-confinement"), 3u);
}

TEST(LintCodec, FlagsShiftByByteAssembly)
{
    const auto diags =
        lint("src/net/bad.cc",
             "out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));\n"
             "v |= static_cast<uint64_t>(p[i]) << (8 * i);\n");
    EXPECT_EQ(countRule(diags, "codec-confinement"), 2u);
}

TEST(LintCodec, SharedCodecAndToolsAreExempt)
{
    const std::string codec =
        "constexpr uint64_t basis = 0xcbf29ce484222325ULL;\n"
        "v |= static_cast<uint64_t>(b[i]) << (8 * i);\n";
    EXPECT_EQ(countRule(lint("src/sim/hash.hh", codec),
                        "codec-confinement"),
              0u);
    EXPECT_EQ(countRule(lint("src/sim/bytes.hh", codec),
                        "codec-confinement"),
              0u);
    EXPECT_EQ(countRule(lint("tools/lint/format.cc", codec),
                        "codec-confinement"),
              0u);
}

TEST(LintCodec, OtherShiftsAndConstantsAreNotFlagged)
{
    const auto diags =
        lint("src/mem/ok.cc",
             "x = y << (4 * i);\nz = w >> 8;\nbool b = a < (8 * k);\n"
             "uint64_t m = 0x9e3779b97f4a7c15ULL;\n");
    EXPECT_EQ(countRule(diags, "codec-confinement"), 0u);
}

// --------------------------------------------------------------------
// Diagnostics formatting
// --------------------------------------------------------------------

TEST(LintFormat, CanonicalFileLineRuleMessage)
{
    const auto diags =
        lint("src/core/bad.cc", "std::mt19937 gen(42);\n");
    ASSERT_EQ(diags.size(), 1u);
    const std::string text = diags[0].format();
    EXPECT_EQ(text.rfind("src/core/bad.cc:1: raw-rng: ", 0), 0u)
        << text;
}

// --------------------------------------------------------------------
// Allowlist parsing
// --------------------------------------------------------------------

TEST(LintAllowlist, ParsesJustifiedEntries)
{
    const Allowlist allow = parseAllowlist(
        "# harness knob, read before simulation starts\n"
        "wallclock bench/bench_common.hh token=getenv\n"
        "\n"
        "# never iterated\n"
        "unordered-decl src/mem/memory_system.hh\n",
        "allow.txt");
    EXPECT_TRUE(allow.errors.empty());
    ASSERT_EQ(allow.entries.size(), 2u);
    EXPECT_EQ(allow.entries[0].rule, "wallclock");
    EXPECT_EQ(allow.entries[0].token, "getenv");
    EXPECT_EQ(allow.entries[0].justification,
              "harness knob, read before simulation starts");
    EXPECT_TRUE(allow.entries[1].token.empty());
}

TEST(LintAllowlist, RejectsUnjustifiedEntry)
{
    const Allowlist allow =
        parseAllowlist("wallclock bench/ token=getenv\n", "allow.txt");
    EXPECT_TRUE(allow.entries.empty());
    ASSERT_EQ(allow.errors.size(), 1u);
    EXPECT_EQ(allow.errors[0].rule, "allowlist-justification");
}

TEST(LintAllowlist, BlankLineSeparatesJustificationFromEntry)
{
    // A comment followed by a blank line does not justify the entry.
    const Allowlist allow = parseAllowlist(
        "# some unrelated prose\n\nraw-rng src/foo.cc\n", "allow.txt");
    EXPECT_TRUE(allow.entries.empty());
    EXPECT_EQ(allow.errors.size(), 1u);
}

TEST(LintAllowlist, RejectsMalformedFields)
{
    const Allowlist allow = parseAllowlist(
        "# why\nraw-rng src/foo.cc bogus=field\n", "allow.txt");
    EXPECT_TRUE(allow.entries.empty());
    ASSERT_EQ(allow.errors.size(), 1u);
    EXPECT_EQ(allow.errors[0].rule, "allowlist-format");
}

// --------------------------------------------------------------------
// Tree scans over a synthetic repository
// --------------------------------------------------------------------

class LintTreeFixture : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        root_ = fs::path(::testing::TempDir()) /
                ("xser_lint_" +
                 std::string(::testing::UnitTest::GetInstance()
                                 ->current_test_info()
                                 ->name()));
        fs::remove_all(root_);
        fs::create_directories(root_);
    }

    void TearDown() override { fs::remove_all(root_); }

    void write(const std::string &rel, const std::string &content)
    {
        const fs::path path = root_ / rel;
        fs::create_directories(path.parent_path());
        std::ofstream out(path);
        out << content;
    }

    fs::path root_;
};

TEST_F(LintTreeFixture, SeededViolationIsCaught)
{
    write("src/core/bad.cc", "std::mt19937 gen(42);\n");
    write("src/core/ok.cc", "int x = 1;\n");
    LintConfig config;
    config.root = root_;
    const LintReport report = runLint(config);
    EXPECT_EQ(report.filesScanned, 2u);
    ASSERT_EQ(report.unallowed.size(), 1u);
    EXPECT_EQ(report.unallowed[0].rule, "raw-rng");
    EXPECT_EQ(report.unallowed[0].file, "src/core/bad.cc");
    EXPECT_FALSE(report.clean());
}

TEST_F(LintTreeFixture, AllowlistedHitIsReportedAsAllowed)
{
    write("src/core/bad.cc", "std::mt19937 gen(42);\n");
    write("allow.txt",
          "# legacy engine scheduled for conversion\n"
          "raw-rng src/core/bad.cc token=mt19937\n");
    LintConfig config;
    config.root = root_;
    config.allowFile = root_ / "allow.txt";
    const LintReport report = runLint(config);
    EXPECT_TRUE(report.unallowed.empty());
    ASSERT_EQ(report.allowed.size(), 1u);
    EXPECT_TRUE(report.configErrors.empty());
    EXPECT_TRUE(report.clean());
}

TEST_F(LintTreeFixture, DirectoryPrefixEntriesMatch)
{
    write("bench/bench_a.cc", "const char *v = std::getenv(\"X\");\n");
    write("bench/bench_b.cc", "const char *v = std::getenv(\"Y\");\n");
    write("allow.txt",
          "# bench harness knobs, printed in the banner\n"
          "wallclock bench/ token=getenv\n");
    LintConfig config;
    config.root = root_;
    config.allowFile = root_ / "allow.txt";
    const LintReport report = runLint(config);
    EXPECT_TRUE(report.unallowed.empty());
    EXPECT_EQ(report.allowed.size(), 2u);
    EXPECT_TRUE(report.clean());
}

TEST_F(LintTreeFixture, StaleAllowlistEntryIsAnError)
{
    write("src/core/ok.cc", "int x = 1;\n");
    write("allow.txt",
          "# obsolete: the violation was fixed\n"
          "raw-rng src/core/gone.cc token=mt19937\n");
    LintConfig config;
    config.root = root_;
    config.allowFile = root_ / "allow.txt";
    const LintReport report = runLint(config);
    EXPECT_TRUE(report.unallowed.empty());
    ASSERT_EQ(report.configErrors.size(), 1u);
    EXPECT_EQ(report.configErrors[0].rule, "allowlist-stale");
    EXPECT_FALSE(report.clean());
}

// --------------------------------------------------------------------
// The real tree must be clean: this is the determinism-contract gate.
// --------------------------------------------------------------------

TEST(LintRealTree, SrcToolsBenchAreClean)
{
    LintConfig config;
    config.root = XSER_SOURCE_ROOT;
    config.allowFile =
        fs::path(XSER_SOURCE_ROOT) / "tools" / "xser-lint-allow.txt";
    const LintReport report = runLint(config);
    for (const auto &diag : report.unallowed)
        ADD_FAILURE() << diag.format();
    for (const auto &diag : report.configErrors)
        ADD_FAILURE() << diag.format();
    EXPECT_TRUE(report.clean());
    // Sanity: the scan actually covered the tree and the allowlist is
    // live (every entry justified AND matching something).
    EXPECT_GT(report.filesScanned, 100u);
    EXPECT_FALSE(report.allowed.empty());
}

TEST(LintRealTree, SemanticRulesRunCleanStandalone)
{
    // The lint.Semantic CI gate: flow and cross-TU rules alone, with
    // the shared allowlist, must also come back clean.
    LintConfig config;
    config.root = XSER_SOURCE_ROOT;
    config.allowFile =
        fs::path(XSER_SOURCE_ROOT) / "tools" / "xser-lint-allow.txt";
    config.rules = RuleSet::Semantic;
    const LintReport report = runLint(config);
    for (const auto &diag : report.unallowed)
        ADD_FAILURE() << diag.format();
    for (const auto &diag : report.configErrors)
        ADD_FAILURE() << diag.format();
    EXPECT_TRUE(report.clean());
}

// --------------------------------------------------------------------
// Tokenizer hardening (translation phases 1-2 and raw strings)
// --------------------------------------------------------------------

TEST(LintTokenizer, RawStringWithCustomDelimiterIsStripped)
{
    // A banned name inside R"xyz(...)xyz" must not trip any rule, and
    // the quote inside the raw body must not derail the lexer.
    const auto diags =
        lint("src/core/ok.cc",
             "const char *doc = R\"xyz(call getenv(\"HOME\") \") here"
             ")abc) still raw )xyz\";\n"
             "int after = 1;\n");
    EXPECT_TRUE(diags.empty());
}

TEST(LintTokenizer, RawStringPrefixRequiresWhitelistedForm)
{
    // An identifier merely ending in R is not a raw-string prefix; the
    // string after it is an ordinary literal and its body is stripped.
    const auto tokens = tokenize("int BAR = f(\"getenv\");\n");
    bool saw_bar = false;
    for (const auto &token : tokens) {
        EXPECT_NE(token.text, "getenv");
        if (token.text == "BAR")
            saw_bar = true;
    }
    EXPECT_TRUE(saw_bar);
}

TEST(LintTokenizer, EncodingPrefixedRawStringsAreStripped)
{
    for (const char *prefix : {"R", "uR", "u8R", "UR", "LR"}) {
        const std::string source = std::string("auto s = ") + prefix +
                                   "\"(std::mt19937)\";\n";
        const auto diags = lint("src/core/ok.cc", source);
        EXPECT_TRUE(diags.empty()) << prefix;
    }
}

TEST(LintTokenizer, LineContinuationInDirectiveIsSpliced)
{
    // The spliced directive is one logical line; the include of
    // <chrono> must still be recognized even when split.
    const auto diags =
        lint("src/core/bad.cc", "#include \\\n    <chrono>\nint x;\n");
    ASSERT_EQ(countRule(diags, "wallclock"), 1u);
    EXPECT_EQ(diags[0].line, 1);
}

TEST(LintTokenizer, LineContinuationInCodeKeepsOriginalLines)
{
    const auto diags =
        lint("src/core/bad.cc", "auto v = std::\\\ngetenv(\"X\");\n");
    ASSERT_EQ(countRule(diags, "wallclock"), 1u);
    // The offending token sits on the physical line where it appears.
    EXPECT_EQ(diags[0].line, 2);
}

TEST(LintTokenizer, TrigraphsDecode)
{
    // ??/ is a trigraph backslash: followed by a newline it splices,
    // so the directive below is one logical include of <chrono>.
    const auto diags = lint("src/core/bad.cc",
                            "#include ??/\n<chrono>\nint x;\n");
    EXPECT_EQ(countRule(diags, "wallclock"), 1u);
}

TEST(LintTokenizer, DigraphsMapToPrimaryTokens)
{
    const auto tokens =
        tokenize("int a<:3:> = <%1, 2, 3%>;\nstd::vector<::Tag> v;\n");
    std::string joined;
    for (const auto &token : tokens)
        joined += token.text + " ";
    EXPECT_NE(joined.find("[ 3 ]"), std::string::npos) << joined;
    EXPECT_NE(joined.find("{ 1 , 2 , 3 }"), std::string::npos) << joined;
    // <:: followed by a non-:/> token keeps '<' alone so qualified
    // template arguments survive (the <:: disambiguation rule).
    EXPECT_NE(joined.find("< :: Tag >"), std::string::npos) << joined;
}

TEST(LintTokenizer, DigraphDirectiveIsCaptured)
{
    // %: at the start of a line is a # digraph: the pragma is still a
    // directive token, so the OpenMP rule sees it.
    const auto diags =
        lint("src/stats/bad.cc", "%:pragma omp parallel for\n");
    EXPECT_EQ(countRule(diags, "parallel-fanin"), 1u);
}

// --------------------------------------------------------------------
// Rule: rng-stream-discipline
// --------------------------------------------------------------------

TEST(LintRngDiscipline, FlagsLiteralSeededEngine)
{
    const auto diags =
        lint("src/workloads/bad.cc", "Rng rng(12345);\n");
    ASSERT_EQ(countRule(diags, "rng-stream-discipline"), 1u);
    EXPECT_EQ(diags[0].token, "rng");
}

TEST(LintRngDiscipline, FlagsDefaultConstructionInFunctionScope)
{
    const auto diags = lint("src/rad/bad.cc",
                            "void f() {\n    Rng rng;\n    use(rng);\n"
                            "}\n");
    EXPECT_EQ(countRule(diags, "rng-stream-discipline"), 1u);
}

TEST(LintRngDiscipline, AcceptsDerivedForkAndSeedVariable)
{
    const auto diags = lint(
        "src/workloads/ok.cc",
        "void f(uint64_t campaign_seed, int session, int repl) {\n"
        "    Rng a(deriveStreamSeed(campaign_seed, session, repl));\n"
        "    Rng b = a.fork(\"logic\");\n"
        "    Rng c(config.chipSeed);\n"
        "}\n");
    EXPECT_EQ(countRule(diags, "rng-stream-discipline"), 0u);
}

TEST(LintRngDiscipline, MemberDeclarationIsNotFlagged)
{
    // A default-member Rng is seeded later by the constructor; only
    // function-scope default construction draws the fixed stream.
    const auto diags = lint("src/inject/ok.hh",
                            "#pragma once\n"
                            "class FaultInjector {\n"
                            "    Rng rng_;\n"
                            "};\n");
    EXPECT_EQ(countRule(diags, "rng-stream-discipline"), 0u);
}

TEST(LintRngDiscipline, FlagsEngineHoistedAboveReplicateLoop)
{
    const auto diags = lint(
        "src/core/bad.cc",
        "void run(uint64_t seed, int n) {\n"
        "    Rng rng(seed);\n"
        "    for (int replicate = 0; replicate < n; ++replicate) {\n"
        "        results.push_back(rng.nextU64());\n"
        "    }\n"
        "}\n");
    EXPECT_EQ(countRule(diags, "rng-stream-discipline"), 1u);
}

TEST(LintRngDiscipline, PerIterationForkInsideLoopIsAccepted)
{
    const auto diags = lint(
        "src/core/ok.cc",
        "void run(uint64_t seed, int n) {\n"
        "    Rng session_rng(seed);\n"
        "    for (int replicate = 0; replicate < n; ++replicate) {\n"
        "        Rng repl_rng(deriveStreamSeed(seed, 0, replicate));\n"
        "        Rng logic = session_rng.fork(\"logic\");\n"
        "        use(repl_rng, logic);\n"
        "    }\n"
        "}\n");
    EXPECT_EQ(countRule(diags, "rng-stream-discipline"), 0u);
}

TEST(LintRngDiscipline, OrdinaryLoopsDoNotTriggerHoistCheck)
{
    // Only session/replicate coordinate loops define stream bounds; a
    // plain event loop legitimately shares one stream.
    const auto diags =
        lint("src/mem/ok.cc",
             "void f(uint64_t seed, int n) {\n"
             "    Rng rng(seed);\n"
             "    for (int i = 0; i < n; ++i) { step(rng); }\n"
             "}\n");
    EXPECT_EQ(countRule(diags, "rng-stream-discipline"), 0u);
}

TEST(LintRngDiscipline, ReferencesAndForwardDeclsAreNotConstructions)
{
    const auto diags = lint("src/stats/ok.cc",
                            "class Rng;\n"
                            "void f(Rng &rng);\n"
                            "void g(Rng *rng);\n");
    EXPECT_EQ(countRule(diags, "rng-stream-discipline"), 0u);
}

// --------------------------------------------------------------------
// Rule: fp-reduction-order
// --------------------------------------------------------------------

TEST(LintFpOrder, FlagsFloatAccumulationOverUnorderedRange)
{
    const auto diags = lint(
        "src/stats/bad.cc",
        "double total(const std::unordered_map<int, double> &w) {\n"
        "    double sum = 0.0;\n"
        "    for (const auto &kv : w) { sum += kv.second; }\n"
        "    return sum;\n"
        "}\n");
    ASSERT_EQ(countRule(diags, "fp-reduction-order"), 1u);
    EXPECT_EQ(diags[0].token, "w");
}

TEST(LintFpOrder, IntegerAccumulationIsNotFlagged)
{
    const auto diags = lint(
        "src/stats/ok.cc",
        "int count(const std::unordered_map<int, int> &w) {\n"
        "    int n = 0;\n"
        "    for (const auto &kv : w) { n += kv.second; }\n"
        "    return n;\n"
        "}\n");
    EXPECT_EQ(countRule(diags, "fp-reduction-order"), 0u);
}

TEST(LintFpOrder, OrderedContainerAccumulationIsNotFlagged)
{
    const auto diags =
        lint("src/stats/ok.cc",
             "double total(const std::map<int, double> &w) {\n"
             "    double sum = 0.0;\n"
             "    for (const auto &kv : w) { sum += kv.second; }\n"
             "    return sum;\n"
             "}\n");
    EXPECT_EQ(countRule(diags, "fp-reduction-order"), 0u);
}

TEST(LintFpOrder, FlagsStdAccumulateOverUnorderedContainer)
{
    const auto diags = lint(
        "src/stats/bad.cc",
        "std::unordered_set<double> samples;\n"
        "double s = std::accumulate(samples.begin(), samples.end(), "
        "0.0);\n");
    EXPECT_EQ(countRule(diags, "fp-reduction-order"), 1u);
}

// --------------------------------------------------------------------
// Cross-TU rules over synthetic trees (layering, trace-schema-sync,
// fastpath-parity), each firing and then silenced by an allowlist
// entry.
// --------------------------------------------------------------------

TEST_F(LintTreeFixture, LayeringFlagsUpwardInclude)
{
    write("src/sim/engine.hh",
          "#ifndef A\n#define A\n#include \"stats/agg.hh\"\n#endif\n");
    write("src/stats/agg.hh", "#ifndef B\n#define B\nint f();\n#endif\n");
    LintConfig config;
    config.root = root_;
    const LintReport report = runLint(config);
    ASSERT_EQ(report.unallowed.size(), 1u);
    EXPECT_EQ(report.unallowed[0].rule, "layering");
    EXPECT_EQ(report.unallowed[0].file, "src/sim/engine.hh");
    EXPECT_NE(report.unallowed[0].message.find("stats"),
              std::string::npos);
}

TEST_F(LintTreeFixture, LayeringFlagsIncludeCycle)
{
    write("src/mem/a.hh",
          "#ifndef A\n#define A\n#include \"mem/b.hh\"\n#endif\n");
    write("src/mem/b.hh",
          "#ifndef B\n#define B\n#include \"mem/a.hh\"\n#endif\n");
    LintConfig config;
    config.root = root_;
    const LintReport report = runLint(config);
    ASSERT_EQ(countRule(report.unallowed, "layering"), 1u);
    EXPECT_EQ(report.unallowed[0].token, "cycle");
    EXPECT_NE(report.unallowed[0].message.find(
                  "src/mem/a.hh -> src/mem/b.hh -> src/mem/a.hh"),
              std::string::npos)
        << report.unallowed[0].message;
}

TEST_F(LintTreeFixture, LayeringDownwardIncludesAreClean)
{
    write("src/cli/main.cc", "#include \"core/campaign.hh\"\n");
    write("src/core/campaign.hh",
          "#ifndef C\n#define C\n#include \"sim/engine.hh\"\n"
          "#include \"stats/agg.hh\"\n#endif\n");
    write("src/sim/engine.hh", "#ifndef E\n#define E\nint e();\n#endif\n");
    write("src/stats/agg.hh", "#ifndef S\n#define S\nint s();\n#endif\n");
    LintConfig config;
    config.root = root_;
    const LintReport report = runLint(config);
    EXPECT_EQ(countRule(report.unallowed, "layering"), 0u);
}

TEST_F(LintTreeFixture, LayeringViolationCanBeAllowlisted)
{
    write("src/sim/engine.hh",
          "#ifndef A\n#define A\n#include \"stats/agg.hh\"\n#endif\n");
    write("src/stats/agg.hh", "#ifndef B\n#define B\nint f();\n#endif\n");
    write("allow.txt",
          "# transitional: stats split lands next PR\n"
          "layering src/sim/engine.hh token=stats/agg.hh\n");
    LintConfig config;
    config.root = root_;
    config.allowFile = root_ / "allow.txt";
    const LintReport report = runLint(config);
    EXPECT_TRUE(report.unallowed.empty());
    EXPECT_EQ(report.allowed.size(), 1u);
    EXPECT_TRUE(report.clean());
}

TEST_F(LintTreeFixture, TraceSchemaSyncFlagsCountAndSwitchDrift)
{
    write("src/trace/ev.hh",
          "#ifndef T\n#define T\n"
          "enum class EventType : uint8_t { A = 0, B = 1, C = 2 };\n"
          "constexpr size_t numEventTypes = 2;\n"
          "#endif\n");
    write("src/trace/ev.cc",
          "#include \"trace/ev.hh\"\n"
          "const char *name(EventType t) {\n"
          "    switch (t) {\n"
          "    case EventType::A: return \"A\";\n"
          "    case EventType::B: return \"B\";\n"
          "    }\n"
          "    return \"?\";\n"
          "}\n");
    LintConfig config;
    config.root = root_;
    const LintReport report = runLint(config);
    // numEventTypes disagrees with the enum, and the switch misses C.
    EXPECT_GE(countRule(report.unallowed, "trace-schema-sync"), 2u);
}

TEST_F(LintTreeFixture, TraceSchemaSyncConsistentTreeIsClean)
{
    write("src/trace/ev.hh",
          "#ifndef T\n#define T\n"
          "enum class EventType : uint8_t { A = 0, B = 1 };\n"
          "constexpr size_t numEventTypes = 2;\n"
          "#endif\n");
    write("src/trace/ev.cc",
          "#include \"trace/ev.hh\"\n"
          "const char *name(EventType t) {\n"
          "    switch (t) {\n"
          "    case EventType::A: return \"A\";\n"
          "    case EventType::B: return \"B\";\n"
          "    }\n"
          "    return \"?\";\n"
          "}\n");
    LintConfig config;
    config.root = root_;
    const LintReport report = runLint(config);
    EXPECT_EQ(countRule(report.unallowed, "trace-schema-sync"), 0u);
}

TEST_F(LintTreeFixture, FastpathParityRequiresTwinAndTest)
{
    write("src/ecc/kern.hh",
          "#ifndef K\n#define K\n"
          "inline int foldReference(int x) { return x; }\n"
          "#endif\n");
    LintConfig config;
    config.root = root_;
    const LintReport report = runLint(config);
    // No 'fold' beside it and no test references it: two findings.
    EXPECT_EQ(countRule(report.unallowed, "fastpath-parity"), 2u);
}

TEST_F(LintTreeFixture, FastpathParityTwinPlusDifferentialTestIsClean)
{
    write("src/ecc/kern.hh",
          "#ifndef K\n#define K\n"
          "inline int fold(int x) { return x * 2; }\n"
          "inline int foldReference(int x) { return x + x; }\n"
          "#endif\n");
    write("tests/test_kern.cc",
          "#include \"ecc/kern.hh\"\n"
          "void diff() { assert(fold(3) == foldReference(3)); }\n");
    LintConfig config;
    config.root = root_;
    const LintReport report = runLint(config);
    EXPECT_EQ(countRule(report.unallowed, "fastpath-parity"), 0u);
}

TEST_F(LintTreeFixture, FastpathParityCanBeAllowlisted)
{
    write("src/ecc/kern.hh",
          "#ifndef K\n#define K\n"
          "inline int foldReference(int x) { return x; }\n"
          "#endif\n");
    write("allow.txt",
          "# scaffolding: fast twin lands with the next kernel PR\n"
          "fastpath-parity src/ecc/kern.hh token=foldReference\n");
    LintConfig config;
    config.root = root_;
    config.allowFile = root_ / "allow.txt";
    const LintReport report = runLint(config);
    EXPECT_TRUE(report.unallowed.empty());
    EXPECT_EQ(report.allowed.size(), 2u);
    EXPECT_TRUE(report.clean());
}

TEST_F(LintTreeFixture, TelemetryPurityFlagsClockHeaderOutsideTelemetry)
{
    write("src/mem/probe.cc", "#include <chrono>\nint x;\n");
    LintConfig config;
    config.root = root_;
    const LintReport report = runLint(config);
    EXPECT_EQ(countRule(report.unallowed, "telemetry-purity"), 1u);
}

TEST_F(LintTreeFixture, TelemetryPurityAllowsClockInsideTelemetry)
{
    write("src/telemetry/stopwatch.cc",
          "#include <chrono>\nint x;\n");
    LintConfig config;
    config.root = root_;
    const LintReport report = runLint(config);
    EXPECT_EQ(countRule(report.unallowed, "telemetry-purity"), 0u);
}

TEST_F(LintTreeFixture, TelemetryPurityShieldsRngAndSnapshot)
{
    // The RNG and the byte codec that writes every snapshot.
    write("src/sim/rng.cc",
          "#include \"telemetry/metrics.hh\"\nint x;\n");
    write("src/sim/bytes.hh",
          "#ifndef S\n#define S\n"
          "#include \"telemetry/stopwatch.hh\"\n#endif\n");
    write("src/sim/hash.hh",
          "#ifndef H\n#define H\n"
          "#include \"telemetry/metrics.hh\"\n#endif\n");
    LintConfig config;
    config.root = root_;
    const LintReport report = runLint(config);
    EXPECT_EQ(countRule(report.unallowed, "telemetry-purity"), 3u);
}

TEST_F(LintTreeFixture, TelemetryPurityCanBeAllowlisted)
{
    write("src/sim/rng.cc",
          "#include \"telemetry/metrics.hh\"\nint x;\n");
    write("allow.txt",
          "# transitional: counter prototype, removed next PR\n"
          "telemetry-purity src/sim/rng.cc token=telemetry/metrics.hh\n"
          "# the same transitional include trips the layer DAG too\n"
          "layering src/sim/rng.cc token=telemetry/metrics.hh\n");
    LintConfig config;
    config.root = root_;
    config.allowFile = root_ / "allow.txt";
    const LintReport report = runLint(config);
    EXPECT_TRUE(report.unallowed.empty());
    EXPECT_EQ(report.allowed.size(), 2u);
    EXPECT_TRUE(report.clean());
}

TEST_F(LintTreeFixture, NetConfinementFlagsSocketHeaderOutsideNet)
{
    write("src/core/push.cc", "#include <sys/socket.h>\nint x;\n");
    write("src/telemetry/up.cc", "#include <poll.h>\nint y;\n");
    LintConfig config;
    config.root = root_;
    const LintReport report = runLint(config);
    EXPECT_EQ(countRule(report.unallowed, "net-confinement"), 2u);
}

TEST_F(LintTreeFixture, NetConfinementAllowsSocketsInsideNet)
{
    write("src/net/socket.cc",
          "#include <sys/socket.h>\n#include <netinet/in.h>\n"
          "#include <poll.h>\nint x;\n");
    LintConfig config;
    config.root = root_;
    const LintReport report = runLint(config);
    EXPECT_EQ(countRule(report.unallowed, "net-confinement"), 0u);
}

TEST_F(LintTreeFixture, NetConfinementShieldsRngAndSnapshotFromNet)
{
    // The RNG stays out of reach; the byte codec and hash the frame
    // codec shares with snapshots are pure and allowed. Snapshot state
    // itself (mem/, cpu/, core/) sits above src/net in the layer DAG.
    write("src/net/relay.cc",
          "#include \"sim/bytes.hh\"\n#include \"sim/hash.hh\"\n"
          "#include \"sim/rng.hh\"\nint x;\n");
    LintConfig config;
    config.root = root_;
    const LintReport report = runLint(config);
    EXPECT_EQ(countRule(report.unallowed, "net-confinement"), 1u);
}

TEST_F(LintTreeFixture, NetConfinementCanBeAllowlisted)
{
    write("src/core/push.cc", "#include <sys/socket.h>\nint x;\n");
    write("allow.txt",
          "# transitional: moves into src/net next PR\n"
          "net-confinement src/core/push.cc token=sys/socket.h\n");
    LintConfig config;
    config.root = root_;
    config.allowFile = root_ / "allow.txt";
    const LintReport report = runLint(config);
    EXPECT_TRUE(report.unallowed.empty());
    EXPECT_EQ(report.allowed.size(), 1u);
    EXPECT_TRUE(report.clean());
}

TEST_F(LintTreeFixture, LayeringPlacesNetBelowServiceAndAboveSim)
{
    // service (rank 8) may include net (3) and core (7); net may
    // include sim (0) but nothing above itself.
    write("src/service/server.hh",
          "#ifndef SV\n#define SV\n#include \"net/frame.hh\"\n"
          "#include \"core/campaign.hh\"\n#endif\n");
    write("src/net/frame.hh",
          "#ifndef NF\n#define NF\n#include \"sim/logging.hh\"\n"
          "#endif\n");
    write("src/core/campaign.hh",
          "#ifndef C\n#define C\nint c();\n#endif\n");
    write("src/sim/logging.hh",
          "#ifndef L\n#define L\nint l();\n#endif\n");
    LintConfig config;
    config.root = root_;
    const LintReport report = runLint(config);
    EXPECT_EQ(countRule(report.unallowed, "layering"), 0u);

    // A net -> mem edge goes up the DAG and must be flagged.
    write("src/net/bad.hh",
          "#ifndef NB\n#define NB\n#include \"mem/cache.hh\"\n"
          "#endif\n");
    write("src/mem/cache.hh", "#ifndef M\n#define M\nint m();\n#endif\n");
    const LintReport flagged = runLint(config);
    EXPECT_EQ(countRule(flagged.unallowed, "layering"), 1u);
}

// --------------------------------------------------------------------
// findCycles: property tests over random DAGs with injected back-edges
// --------------------------------------------------------------------

/** Deterministic splitmix64 for test-local graph shuffling. */
uint64_t
splitmix64(uint64_t &state)
{
    state += 0x9e3779b97f4a7c15ull;
    uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

std::string
nodeName(size_t i)
{
    return "n" + std::to_string(100 + i);
}

/** Random DAG: edges only from lower to higher node index. */
Graph
randomDag(uint64_t seed, size_t nodes, size_t edges)
{
    Graph graph;
    for (size_t i = 0; i < nodes; ++i)
        graph[nodeName(i)];
    uint64_t state = seed;
    for (size_t e = 0; e < edges; ++e) {
        const size_t a = splitmix64(state) % nodes;
        const size_t b = splitmix64(state) % nodes;
        if (a == b)
            continue;
        const size_t lo = a < b ? a : b;
        const size_t hi = a < b ? b : a;
        graph[nodeName(lo)].push_back(nodeName(hi));
    }
    return graph;
}

TEST(LintCycles, RandomDagsHaveNoCycles)
{
    for (uint64_t seed = 1; seed <= 25; ++seed) {
        const Graph graph = randomDag(seed, 12 + seed % 9, 30);
        EXPECT_TRUE(findCycles(graph).empty()) << "seed " << seed;
    }
}

TEST(LintCycles, InjectedBackEdgeIsReported)
{
    for (uint64_t seed = 1; seed <= 25; ++seed) {
        uint64_t state = seed * 77;
        const size_t nodes = 10 + seed % 7;
        Graph graph = randomDag(seed, nodes, 25);
        // Find any forward edge and close it with a back-edge.
        std::string from, to;
        for (const auto &[node, targets] : graph) {
            if (!targets.empty()) {
                from = node;
                to = targets[splitmix64(state) % targets.size()];
                break;
            }
        }
        if (from.empty())
            continue; // degenerate draw: no edges at all
        graph[to].push_back(from);
        const auto cycles = findCycles(graph);
        ASSERT_FALSE(cycles.empty()) << "seed " << seed;
        // The injected edge's endpoints sit on some reported cycle.
        bool found = false;
        for (const auto &cycle : cycles) {
            bool has_from = false, has_to = false;
            for (const auto &node : cycle) {
                has_from |= node == from;
                has_to |= node == to;
            }
            found |= has_from && has_to;
        }
        EXPECT_TRUE(found) << "seed " << seed;
    }
}

TEST(LintCycles, EachElementaryCycleReportedOnceCanonically)
{
    Graph graph;
    graph["a"] = {"b"};
    graph["b"] = {"c"};
    graph["c"] = {"a", "b"};
    const auto cycles = findCycles(graph);
    ASSERT_EQ(cycles.size(), 2u);
    // Rotated so the smallest node leads, and deduplicated.
    const std::vector<std::string> abc{"a", "b", "c"};
    const std::vector<std::string> bc{"b", "c"};
    EXPECT_TRUE((cycles[0] == abc && cycles[1] == bc) ||
                (cycles[0] == bc && cycles[1] == abc));
}

TEST(LintCycles, SelfLoopIsACycle)
{
    Graph graph;
    graph["a"] = {"a"};
    const auto cycles = findCycles(graph);
    ASSERT_EQ(cycles.size(), 1u);
    EXPECT_EQ(cycles[0], std::vector<std::string>{"a"});
}

// --------------------------------------------------------------------
// Allowlist hardening: unknown rules, staleness scoping, --allow-stale
// --------------------------------------------------------------------

TEST(LintAllowlist, UnknownRuleIdIsAFormatError)
{
    const Allowlist allow = parseAllowlist(
        "# typo'd rule would silently allow nothing\n"
        "wallclok src/core/x.cc token=getenv\n",
        "allow.txt");
    EXPECT_TRUE(allow.entries.empty());
    ASSERT_EQ(allow.errors.size(), 1u);
    EXPECT_EQ(allow.errors[0].rule, "allowlist-format");
    EXPECT_EQ(allow.errors[0].token, "wallclok");
}

TEST_F(LintTreeFixture, AllowStaleDemotesStaleEntriesToWarnings)
{
    write("src/core/ok.cc", "int x = 1;\n");
    write("allow.txt",
          "# obsolete: the violation was fixed\n"
          "raw-rng src/core/gone.cc token=mt19937\n");
    LintConfig config;
    config.root = root_;
    config.allowFile = root_ / "allow.txt";
    config.allowStale = true;
    const LintReport report = runLint(config);
    EXPECT_TRUE(report.configErrors.empty());
    ASSERT_EQ(report.staleWarnings.size(), 1u);
    EXPECT_EQ(report.staleWarnings[0].rule, "allowlist-stale");
    EXPECT_TRUE(report.clean());
}

TEST_F(LintTreeFixture, StalenessIsScopedToTheActiveRuleSet)
{
    // A classic-rule entry must not read as stale in a semantic-only
    // run (the lint.Tree / lint.Semantic CI split would otherwise each
    // flag the other's entries).
    write("src/core/bad.cc", "std::mt19937 gen(42);\n");
    write("allow.txt",
          "# legacy engine scheduled for conversion\n"
          "raw-rng src/core/bad.cc token=mt19937\n");
    LintConfig config;
    config.root = root_;
    config.allowFile = root_ / "allow.txt";
    config.rules = RuleSet::Semantic;
    const LintReport report = runLint(config);
    EXPECT_TRUE(report.unallowed.empty());
    EXPECT_TRUE(report.configErrors.empty());
    EXPECT_TRUE(report.clean());
}

TEST_F(LintTreeFixture, RuleSetSplitsPartitionFindings)
{
    write("src/core/bad.cc",
          "std::mt19937 gen(42);\nRng rng(12345);\n");
    LintConfig config;
    config.root = root_;
    config.rules = RuleSet::Classic;
    const LintReport classic = runLint(config);
    EXPECT_EQ(countRule(classic.unallowed, "raw-rng"), 1u);
    EXPECT_EQ(countRule(classic.unallowed, "rng-stream-discipline"), 0u);
    config.rules = RuleSet::Semantic;
    const LintReport semantic = runLint(config);
    EXPECT_EQ(countRule(semantic.unallowed, "raw-rng"), 0u);
    EXPECT_EQ(countRule(semantic.unallowed, "rng-stream-discipline"),
              1u);
}

// --------------------------------------------------------------------
// --diff mode (onlyFiles) and the incremental cache
// --------------------------------------------------------------------

TEST_F(LintTreeFixture, OnlyFilesRestrictsFindingsAndSkipsStaleness)
{
    write("src/core/bad.cc", "std::mt19937 gen(42);\n");
    write("src/core/other.cc", "std::mt19937 gen2(43);\n");
    write("allow.txt",
          "# entry matching nothing: must not count as stale in diff "
          "mode\n"
          "wallclock src/core/gone.cc token=getenv\n");
    LintConfig config;
    config.root = root_;
    config.allowFile = root_ / "allow.txt";
    config.onlyFiles = {"src/core/bad.cc"};
    const LintReport report = runLint(config);
    ASSERT_EQ(report.unallowed.size(), 1u);
    EXPECT_EQ(report.unallowed[0].file, "src/core/bad.cc");
    EXPECT_TRUE(report.configErrors.empty());
}

// --------------------------------------------------------------------
// Report rendering: JSON shape and the golden SARIF pin
// --------------------------------------------------------------------

LintReport
sampleReport()
{
    LintReport report;
    report.unallowed.push_back(
        {"src/core/bad.cc", 3, "raw-rng", "mt19937",
         "raw RNG 'mt19937' bypasses the stream splitter"});
    report.staleWarnings.push_back(
        {"tools/xser-lint-allow.txt", 7, "allowlist-stale", "wallclock",
         "allowlist entry 'wallclock src/gone.cc' no longer matches"});
    report.filesScanned = 2;
    return report;
}

TEST(LintRender, JsonContainsFindingsAndCounts)
{
    const std::string json = renderJson(sampleReport());
    EXPECT_NE(json.find("\"findings\""), std::string::npos);
    EXPECT_NE(json.find("\"raw-rng\""), std::string::npos);
    EXPECT_NE(json.find("\"filesScanned\": 2"), std::string::npos);
    EXPECT_NE(json.find("\"clean\": false"), std::string::npos);
}

TEST(LintRender, GoldenSarifPin)
{
    // Byte-exact pin of the SARIF skeleton for one finding plus one
    // stale warning. A schema change here must be deliberate: GitHub
    // code scanning parses this exact shape.
    const std::string sarif = renderSarif(sampleReport());
    EXPECT_NE(
        sarif.find("\"$schema\": \"https://raw.githubusercontent.com/"
                   "oasis-tcs/sarif-spec/master/Schemata/"
                   "sarif-schema-2.1.0.json\""),
        std::string::npos);
    EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
    EXPECT_NE(sarif.find("\"name\": \"xser-lint\""), std::string::npos);
    const std::string result =
        "        {\n"
        "          \"ruleId\": \"raw-rng\",\n"
        "          \"level\": \"error\",\n"
        "          \"message\": {\"text\": \"raw RNG 'mt19937' "
        "bypasses the stream splitter\"},\n"
        "          \"locations\": [{\"physicalLocation\": "
        "{\"artifactLocation\": {\"uri\": \"src/core/bad.cc\"}, "
        "\"region\": {\"startLine\": 3}}}]\n"
        "        }";
    EXPECT_NE(sarif.find(result), std::string::npos) << sarif;
    EXPECT_NE(sarif.find("\"level\": \"warning\""), std::string::npos);
    // Every emittable rule id is declared in the driver metadata.
    for (const RuleInfo &info : ruleTable())
        EXPECT_NE(sarif.find("\"id\": \"" + info.id + "\""),
                  std::string::npos)
            << info.id;
}

TEST(LintRender, RuleTableCoversBothSets)
{
    size_t classic = 0, semantic = 0;
    for (const RuleInfo &info : ruleTable())
        (info.semantic ? semantic : classic) += 1;
    EXPECT_EQ(classic, 8u);
    EXPECT_EQ(semantic, 7u);
    EXPECT_TRUE(knownRule("layering"));
    EXPECT_TRUE(knownRule("telemetry-purity"));
    EXPECT_TRUE(knownRule("net-confinement"));
    EXPECT_TRUE(knownRule("codec-confinement"));
    EXPECT_TRUE(ruleInSet("codec-confinement", RuleSet::Classic));
    EXPECT_FALSE(knownRule("no-such-rule"));
    EXPECT_TRUE(ruleInSet("wallclock", RuleSet::Classic));
    EXPECT_FALSE(ruleInSet("wallclock", RuleSet::Semantic));
    EXPECT_TRUE(ruleInSet("fastpath-parity", RuleSet::All));
}

} // namespace
} // namespace xser::lint
