// Differential proof that the dense HliUnitView answers EXACTLY like the
// original map-based implementation (kept as reference_query.hpp): every
// workload's HLI entry is pushed through both views and every query of
// the §3.2.2 interface is compared on every item pair.  This is the
// safety net under the dense-index rewrite — the scheduler's Table 2
// numbers are a function of these answers, so "identical on all pairs"
// here means "Table 2 unchanged" there.  The back-end also rebuilds its
// view after every maintenance call (§3.2.3), so the same comparison runs
// over maintained tables and over seeded generator programs.
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "frontend/contract.hpp"
#include "frontend/testgen.hpp"
#include "frontend_basic/testgen.hpp"
#include "hli/maintain.hpp"
#include "hli/query.hpp"
#include "hli/reference_query.hpp"
#include "hli/serialize.hpp"
#include "workloads/workloads.hpp"

namespace hli {
namespace {

using query::HliUnitView;
using query::LcddResult;
using query::reference::ReferenceUnitView;

/// All item IDs of a unit (memory and call items), plus a few IDs that
/// are deliberately unmapped to exercise the conservative paths.
std::vector<format::ItemId> all_items(const format::HliEntry& entry) {
  std::vector<format::ItemId> items;
  for (const auto& line : entry.line_table.lines()) {
    for (const auto& item : line.items) items.push_back(item.id);
  }
  items.push_back(format::kNoItem);
  items.push_back(entry.next_id);       // Never assigned.
  items.push_back(entry.next_id + 97);  // Far outside the dense arrays.
  return items;
}

void expect_same_lcdd(const std::vector<LcddResult>& dense,
                      const std::vector<LcddResult>& ref,
                      const char* what) {
  ASSERT_EQ(dense.size(), ref.size()) << what;
  for (std::size_t i = 0; i < dense.size(); ++i) {
    EXPECT_EQ(dense[i].type, ref[i].type) << what;
    EXPECT_EQ(dense[i].distance, ref[i].distance) << what;
    EXPECT_EQ(dense[i].forward, ref[i].forward) << what;
  }
}

void compare_unit(const format::HliEntry& entry, const std::string& label) {
  SCOPED_TRACE(label);
  const HliUnitView dense(entry);
  const ReferenceUnitView ref(entry);

  const std::vector<format::ItemId> items = all_items(entry);
  std::vector<format::RegionId> regions;
  std::vector<format::RegionId> loops;
  for (const auto& region : entry.regions) {
    regions.push_back(region.id);
    if (region.type == format::RegionType::Loop) loops.push_back(region.id);
  }
  regions.push_back(format::kNoRegion);

  // Structural queries.
  for (const format::RegionId region : regions) {
    EXPECT_EQ(dense.parent_region(region), ref.parent_region(region));
    EXPECT_EQ(dense.innermost_loop(region), ref.innermost_loop(region));
    for (const format::RegionId inner : regions) {
      if (region == format::kNoRegion) continue;
      EXPECT_EQ(dense.region_encloses(region, inner),
                ref.region_encloses(region, inner))
          << "encloses(" << region << ", " << inner << ")";
    }
  }
  for (const format::ItemId item : items) {
    EXPECT_EQ(dense.region_of(item), ref.region_of(item)) << "item " << item;
    for (const auto& region : entry.regions) {
      EXPECT_EQ(dense.class_of_at(item, region.id),
                ref.class_of_at(item, region.id))
          << "class_of_at(" << item << ", " << region.id << ")";
    }
  }

  // The paper's query functions, on every ordered item pair.
  for (const format::ItemId a : items) {
    for (const format::ItemId b : items) {
      ASSERT_EQ(dense.common_region(a, b), ref.common_region(a, b))
          << "common_region(" << a << ", " << b << ")";
      ASSERT_EQ(dense.get_equiv_acc(a, b), ref.get_equiv_acc(a, b))
          << "get_equiv_acc(" << a << ", " << b << ")";
      ASSERT_EQ(dense.get_alias(a, b), ref.get_alias(a, b))
          << "get_alias(" << a << ", " << b << ")";
      ASSERT_EQ(dense.may_conflict(a, b), ref.may_conflict(a, b))
          << "may_conflict(" << a << ", " << b << ")";
      ASSERT_EQ(dense.get_call_acc(a, b), ref.get_call_acc(a, b))
          << "get_call_acc(" << a << ", " << b << ")";
      for (const format::RegionId loop : loops) {
        expect_same_lcdd(dense.get_lcdd(loop, a, b), ref.get_lcdd(loop, a, b),
                         "get_lcdd");
      }
    }
  }
}

/// The HLI file the back-end would see for `source`: analyzed through the
/// front-end contract, then re-read from its serialized form.
format::HliFile analyzed_hli(const std::string& source,
                             frontend::Language language) {
  frontend::FrontendOptions options;
  options.language = language;
  const frontend::AnalyzedUnit unit =
      frontend::analyze_unit(source, options, frontend::HliEncoding::Text);
  return serialize::read_hli(unit.hli_bytes);
}

/// Every in-tree workload, C and BASIC.
std::vector<const workloads::Workload*> suite() {
  std::vector<const workloads::Workload*> out;
  for (const auto& w : workloads::all_workloads()) out.push_back(&w);
  for (const auto& w : workloads::basic_workloads()) out.push_back(&w);
  return out;
}

/// Memory items of a unit with their lines, in line-table order.
std::vector<std::pair<format::ItemId, std::uint32_t>> memory_items(
    const format::HliEntry& entry) {
  std::vector<std::pair<format::ItemId, std::uint32_t>> items;
  for (const auto& line : entry.line_table.lines()) {
    for (const auto& item : line.items) {
      if (format::is_memory_item(item.type)) {
        items.emplace_back(item.id, line.line);
      }
    }
  }
  return items;
}

/// Applies a maintenance `mutate` to every unit of every workload, then
/// compares a freshly built dense view with the oracle over the result.
template <typename Mutate>
void compare_after(const std::string& what, Mutate mutate) {
  for (const workloads::Workload* workload : suite()) {
    format::HliFile file = analyzed_hli(workload->source, workload->language);
    for (format::HliEntry& entry : file.entries) {
      mutate(entry);
      compare_unit(entry,
                   what + " " + workload->name + "/" + entry.unit_name);
    }
  }
}

TEST(DenseQueryDiffTest, AllWorkloadsAllPairsIdentical) {
  for (const workloads::Workload* workload : suite()) {
    const format::HliFile file =
        analyzed_hli(workload->source, workload->language);
    ASSERT_FALSE(file.entries.empty()) << workload->name;
    for (const format::HliEntry& entry : file.entries) {
      compare_unit(entry, workload->name + "/" + entry.unit_name);
    }
  }
}

TEST(DenseQueryDiffTest, GeneratedProgramsAllPairsIdentical) {
  // Generator programs reach shapes the workloads do not: aliased pointer
  // parameters, call chains, guarded break/continue in deep nests.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    testing::GenOptions gen;
    gen.seed = seed;
    const std::string c_source = testing::generate_source(gen);
    gen.features = testing::basic_expressible(gen.features);
    const std::string basic_source = testing::generate_basic_source(gen);
    const std::pair<const std::string*, frontend::Language> inputs[] = {
        {&c_source, frontend::Language::C},
        {&basic_source, frontend::Language::Basic}};
    for (const auto& [source, language] : inputs) {
      const format::HliFile file = analyzed_hli(*source, language);
      ASSERT_FALSE(file.entries.empty()) << "seed " << seed;
      for (const format::HliEntry& entry : file.entries) {
        compare_unit(entry, "seed " + std::to_string(seed) + " " +
                                (language == frontend::Language::C ? "c/"
                                                                   : "basic/") +
                                entry.unit_name);
      }
    }
  }
}

TEST(DenseQueryDiffTest, AllPairsIdenticalAfterUnroll) {
  std::size_t unrolled = 0;
  compare_after("unroll", [&unrolled](format::HliEntry& entry) {
    std::vector<format::RegionId> loops;
    for (const auto& region : entry.regions) {
      if (region.type == format::RegionType::Loop) loops.push_back(region.id);
    }
    // Only innermost loops unroll; the others are refused unchanged.
    for (const format::RegionId loop : loops) {
      if (maintain::unroll_loop(entry, loop, 2).ok) ++unrolled;
    }
  });
  EXPECT_GT(unrolled, 0u);
}

TEST(DenseQueryDiffTest, AllPairsIdenticalAfterDelete) {
  compare_after("delete", [](format::HliEntry& entry) {
    // Every third reference: single-member classes vanish and cascade to
    // their parents, larger ones only shrink.
    const auto items = memory_items(entry);
    for (std::size_t i = 0; i < items.size(); i += 3) {
      maintain::delete_item(entry, items[i].first);
    }
  });
}

TEST(DenseQueryDiffTest, AllPairsIdenticalAfterClone) {
  compare_after("clone", [](format::HliEntry& entry) {
    const auto items = memory_items(entry);
    for (std::size_t i = 0; i < items.size(); i += 2) {
      (void)maintain::clone_item(entry, items[i].first, items[i].second);
    }
  });
}

TEST(DenseQueryDiffTest, AllPairsIdenticalAfterMove) {
  std::size_t moved = 0;
  compare_after("move", [&moved](format::HliEntry& entry) {
    // LICM-style hoists: every other reference directly inside a loop
    // moves to the loop's parent region.
    std::vector<std::pair<format::ItemId, format::RegionId>> hoists;
    {
      const HliUnitView view(entry);
      for (const auto& ref : memory_items(entry)) {
        const format::ItemId item = ref.first;
        const format::RegionId region = view.region_of(item);
        if (region == format::kNoRegion ||
            view.innermost_loop(region) != region) {
          continue;
        }
        hoists.emplace_back(item, view.parent_region(region));
      }
    }
    for (std::size_t i = 0; i < hoists.size(); i += 2) {
      maintain::move_item_to_region(entry, hoists[i].first, hoists[i].second);
      ++moved;
    }
  });
  EXPECT_GT(moved, 0u);
}

}  // namespace
}  // namespace hli
