// Fixture: SUP-1 suppression hygiene for mda-lint. A reasoned allow
// on clean code (suppresses nothing → stale), an allow naming a rule
// that does not exist, and an allow for a whole-program rule that no
// finding needs, which is just as stale as a per-file one.
#include <cstdint>
#include <map>

void
hygiene(std::uint64_t key)
{
    // MDA_LINT_ALLOW(DET-2): std::map is ordered, so this allow
    // suppresses nothing and must be flagged stale. (line 11)
    std::map<std::uint64_t, int> ordered;
    ordered[key] = 1;

    // MDA_LINT_ALLOW(DET-9): no such rule exists. (line 16)
    int x = static_cast<int>(key);

    // MDA_LINT_ALLOW(CONC-1): nothing here is a static, so this
    // suppresses nothing and must be flagged stale. (line 19)
    static_cast<void>(x);
}
