// The paper's Table 1, reproduced as a parameterized truth table.
//
// Fig. 3 structure: Heap and Immortal at the top; scoped area A entered
// from immortal; B and C siblings entered from A. A reference stored in
// region X may point into region Y iff Y outlives X: same region, heap
// (unless no-heap), immortal, or a proper ancestor scope.
#include "memory/immortal.hpp"
#include "memory/scoped.hpp"

#include <gtest/gtest.h>

namespace mem = compadres::memory;

namespace {

/// The five regions of Fig. 3, wired into the paper's shape.
struct Fig3 {
    mem::HeapMemory heap{1024, "heap"};
    mem::ImmortalMemory immortal{1024, "immortal"};
    mem::LTScopedMemory a{1024, "A"};
    mem::LTScopedMemory b{1024, "B"};
    mem::LTScopedMemory c{1024, "C"};

    Fig3() {
        a.enter(immortal);
        b.enter(a);
        c.enter(a);
    }
    ~Fig3() {
        c.exit();
        b.exit();
        a.exit();
    }

    mem::MemoryRegion& by_name(const std::string& name) {
        if (name == "heap") return heap;
        if (name == "immortal") return immortal;
        if (name == "A") return a;
        if (name == "B") return b;
        return c;
    }
};

struct Rule {
    const char* from;
    const char* to;
    bool allowed;          // with ordinary real-time threads
    bool allowed_no_heap;  // with NoHeapRealtimeThread semantics
};

// Without this, gtest prints a Rule as raw bytes, which include the string
// literals' addresses, so every run of the binary would name its cases
// differently.
void PrintTo(const Rule& rule, std::ostream* os) {
    *os << rule.from << " -> " << rule.to;
}

// Table 1 of the paper, completed with the diagonal (same-region access is
// trivially legal) and the no-heap column from the table's caption.
constexpr Rule kTable1[] = {
    {"heap", "heap", true, false},
    {"heap", "immortal", true, true},
    {"heap", "A", false, false},
    {"heap", "B", false, false},
    {"heap", "C", false, false},
    {"immortal", "heap", true, false},
    {"immortal", "immortal", true, true},
    {"immortal", "A", false, false},
    {"immortal", "B", false, false},
    {"immortal", "C", false, false},
    {"A", "heap", true, false},
    {"A", "immortal", true, true},
    {"A", "A", true, true},
    {"A", "B", false, false},
    {"A", "C", false, false},
    {"B", "heap", true, false},
    {"B", "immortal", true, true},
    {"B", "A", true, true},
    {"B", "B", true, true},
    {"B", "C", false, false}, // sibling: the key restriction of the model
    {"C", "heap", true, false},
    {"C", "immortal", true, true},
    {"C", "A", true, true},
    {"C", "B", false, false},
    {"C", "C", true, true},
};

} // namespace

class Table1Test : public ::testing::TestWithParam<Rule> {};

TEST_P(Table1Test, MatchesPaper) {
    Fig3 fig;
    const Rule& rule = GetParam();
    mem::MemoryRegion& from = fig.by_name(rule.from);
    mem::MemoryRegion& to = fig.by_name(rule.to);
    EXPECT_EQ(mem::can_reference(from, to, /*no_heap=*/false), rule.allowed)
        << rule.from << " -> " << rule.to;
    EXPECT_EQ(mem::can_reference(from, to, /*no_heap=*/true),
              rule.allowed_no_heap)
        << rule.from << " -> " << rule.to << " (no-heap)";
}

INSTANTIATE_TEST_SUITE_P(AllCells, Table1Test, ::testing::ValuesIn(kTable1),
                         [](const ::testing::TestParamInfo<Rule>& info) {
                             return std::string(info.param.from) + "_to_" +
                                    info.param.to;
                         });

TEST(AccessRules, AssertThrowsOnIllegalReference) {
    Fig3 fig;
    EXPECT_THROW(mem::assert_can_reference(fig.b, fig.c), mem::ScopeViolation);
    EXPECT_NO_THROW(mem::assert_can_reference(fig.b, fig.a));
}

TEST(AccessRules, ViolationMessageNamesBothRegions) {
    Fig3 fig;
    try {
        mem::assert_can_reference(fig.b, fig.c);
        FAIL() << "expected ScopeViolation";
    } catch (const mem::ScopeViolation& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("'B'"), std::string::npos);
        EXPECT_NE(what.find("'C'"), std::string::npos);
    }
}

TEST(AccessRules, GrandchildMayReferenceGrandparent) {
    mem::ImmortalMemory immortal(1024);
    mem::LTScopedMemory a(1024, "A"), b(1024, "B"), c(1024, "C");
    a.enter(immortal);
    b.enter(a);
    c.enter(b);
    EXPECT_TRUE(mem::can_reference(c, a));  // ancestor
    EXPECT_FALSE(mem::can_reference(a, c)); // descendant: illegal
    c.exit();
    b.exit();
    a.exit();
}
