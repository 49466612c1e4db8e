// Snapshot persistence: packed-column property tests, save/load round-trip
// equality across synthetic and real-world spaces (rows, indexes, neighbour
// and sampling queries, CSV bytes), rejection paths for corrupt / truncated /
// mismatched files, and the load_or_build construction cache.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "tunespace/searchspace/io.hpp"
#include "tunespace/searchspace/neighbors.hpp"
#include "tunespace/searchspace/sampling.hpp"
#include "tunespace/searchspace/searchspace.hpp"
#include "tunespace/spaces/realworld.hpp"
#include "tunespace/spaces/synthetic.hpp"
#include "tunespace/util/rng.hpp"

using namespace tunespace;
namespace fs = std::filesystem;

namespace {

/// Fresh per-test scratch directory under the system temp dir.
class SnapshotTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("tunespace-snapshot-" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string path(const std::string& file) const { return (dir_ / file).string(); }

  fs::path dir_;
};

using PackedColumnTest = SnapshotTest;
using CsvTest = SnapshotTest;

tuner::TuningProblem tiny_spec() {
  tuner::TuningProblem spec("tiny");
  spec.add_param("block_size_x", {1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024})
      .add_param("block_size_y", {1, 2, 4, 8, 16, 32})
      .add_param("sh_power", {0, 1});
  spec.add_constraint("32 <= block_size_x * block_size_y <= 1024");
  spec.add_constraint("sh_power == 0 or block_size_x >= 16");
  return spec;
}

std::string csv_bytes(const searchspace::SearchSpace& space) {
  std::ostringstream os;
  searchspace::write_csv(space, os);
  return os.str();
}

/// Structural + behavioral equality between a fresh build and a reload.
void expect_identical(const searchspace::SearchSpace& fresh,
                      const searchspace::SearchSpace& loaded) {
  ASSERT_EQ(fresh.size(), loaded.size());
  ASSERT_EQ(fresh.num_params(), loaded.num_params());
  EXPECT_EQ(fresh.fingerprint(), loaded.fingerprint());
  EXPECT_EQ(csv_bytes(fresh), csv_bytes(loaded));

  for (std::size_t p = 0; p < fresh.num_params(); ++p) {
    EXPECT_EQ(fresh.solutions().column(p), loaded.solutions().column(p));
    EXPECT_EQ(fresh.present_values(p), loaded.present_values(p));
    for (std::uint32_t vi = 0; vi < fresh.problem().domain(p).size(); ++vi) {
      const auto a = fresh.rows_with(p, vi);
      const auto b = loaded.rows_with(p, vi);
      ASSERT_EQ(a.size(), b.size());
      EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin()));
    }
  }

  // Row lookups agree for every row (and the loaded table resolves them to
  // the same dense ids).
  const std::size_t probe = std::min<std::size_t>(fresh.size(), 500);
  for (std::size_t r = 0; r < probe; ++r) {
    const auto row = fresh.indices(r);
    EXPECT_EQ(fresh.find(row), loaded.find(row));
    EXPECT_EQ(loaded.find(row), r);
  }

  // Neighbour queries are identical.
  for (std::size_t r = 0; r < std::min<std::size_t>(fresh.size(), 50); ++r) {
    EXPECT_EQ(searchspace::neighbors_of(fresh, r),
              searchspace::neighbors_of(loaded, r));
  }

  // Sampling under the same seed is deterministic across fresh/loaded.
  util::Rng rng_a(99), rng_b(99);
  EXPECT_EQ(searchspace::latin_hypercube_sample(fresh, 16, rng_a),
            searchspace::latin_hypercube_sample(loaded, 16, rng_b));

  // Solve effort counters survive the round trip.
  EXPECT_EQ(fresh.solve_stats().nodes, loaded.solve_stats().nodes);
  EXPECT_EQ(fresh.solve_stats().constraint_checks,
            loaded.solve_stats().constraint_checks);
}

void corrupt_byte(const std::string& file, std::uint64_t offset) {
  std::fstream f(file, std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(f) << file;
  f.seekg(static_cast<std::streamoff>(offset));
  char c = 0;
  f.read(&c, 1);
  c = static_cast<char>(c ^ 0x5A);
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(&c, 1);
}

}  // namespace

// ---------------------------------------------------------------------------
// PackedColumn properties
// ---------------------------------------------------------------------------

TEST_F(PackedColumnTest, RandomAccessMatchesReferenceAcrossWidths) {
  for (unsigned bits : {0u, 1u, 3u, 5u, 8u, 13u, 16u, 21u, 31u, 32u}) {
    util::Rng rng(7 * bits + 1);
    solver::PackedColumn col(bits);
    std::vector<std::uint32_t> ref;
    const std::uint64_t mask = bits >= 32 ? 0xFFFFFFFFull : (1ull << bits) - 1;
    for (int i = 0; i < 2000; ++i) {
      const auto v = static_cast<std::uint32_t>(rng() & mask);
      col.push_back(v);
      ref.push_back(v);
    }
    ASSERT_EQ(col.size(), ref.size()) << "bits=" << bits;
    for (std::size_t i = 0; i < ref.size(); ++i) {
      ASSERT_EQ(col.get(i), ref[i]) << "bits=" << bits << " i=" << i;
    }
  }
}

TEST_F(PackedColumnTest, UnpackMatchesGetForEveryWidthAndRange) {
  for (unsigned bits = 0; bits <= 32; ++bits) {
    const std::uint64_t mask = bits >= 32 ? 0xFFFFFFFFull : (1ull << bits) - 1;
    // Sizes whose packed bits end exactly on, just before and just after a
    // word boundary, so the last group's load meets the end of the words.
    for (const std::size_t size : {64u, 63u, 65u, 777u}) {
      util::Rng rng(131 * bits + size);
      solver::PackedColumn col(bits);
      for (std::size_t i = 0; i < size; ++i) {
        col.push_back(static_cast<std::uint32_t>(rng() & mask));
      }
      // A borrowed copy reads straight out of a buffer with nothing after it.
      auto words = std::make_shared<std::vector<std::uint64_t>>(
          col.words(), col.words() + col.word_count());
      const auto borrowed = solver::PackedColumn::borrowed(
          bits, size, words->data(), words);
      for (const std::size_t begin : {std::size_t{0}, std::size_t{1},
                                      std::size_t{8}, std::size_t{13}, size / 2,
                                      size - 1}) {
        for (const std::size_t count : {size - begin, std::size_t{1},
                                        std::min<std::size_t>(9, size - begin)}) {
          std::vector<std::uint32_t> out(count + 1, 0xDEADBEEFu);
          borrowed.unpack(begin, count, out.data());
          for (std::size_t i = 0; i < count; ++i) {
            ASSERT_EQ(out[i], col.get(begin + i))
                << "bits=" << bits << " size=" << size << " begin=" << begin
                << " i=" << i;
          }
          ASSERT_EQ(out[count], 0xDEADBEEFu) << "wrote past count";
        }
      }
    }
  }
}

TEST_F(PackedColumnTest, AppendRangeMatchesElementwiseAppend) {
  for (unsigned bits : {1u, 7u, 11u, 24u, 32u}) {
    util::Rng rng(bits);
    solver::PackedColumn src(bits);
    const std::uint64_t mask = bits >= 32 ? 0xFFFFFFFFull : (1ull << bits) - 1;
    for (int i = 0; i < 777; ++i) {
      src.push_back(static_cast<std::uint32_t>(rng() & mask));
    }
    // Bulk bit blit across word boundaries vs an element loop.
    solver::PackedColumn bulk(bits), loop(bits);
    bulk.push_back(3 & static_cast<std::uint32_t>(mask));  // misalign the start
    loop.push_back(3 & static_cast<std::uint32_t>(mask));
    bulk.append(src, 5, 600);
    for (std::size_t i = 5; i < 605; ++i) loop.push_back(src.get(i));
    EXPECT_EQ(bulk, loop) << "bits=" << bits;
  }
}

/// Word-for-word equality, plus the invariant that bits past size()*bits()
/// are zero (what lets equal-width columns compare and save by words).
void expect_same_words(const solver::PackedColumn& a, const solver::PackedColumn& b,
                       const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  ASSERT_EQ(a.word_count(), b.word_count()) << what;
  for (std::size_t w = 0; w < a.word_count(); ++w) {
    ASSERT_EQ(a.words()[w], b.words()[w]) << what << " word " << w;
  }
  const std::uint64_t used = static_cast<std::uint64_t>(a.size()) * a.bits();
  if (used % 64 != 0) {
    EXPECT_EQ(a.words()[a.word_count() - 1] >> (used % 64), 0u) << what;
  }
}

TEST_F(PackedColumnTest, AppendRunMatchesPushBackLoop) {
  for (unsigned bits = 0; bits <= 32; ++bits) {
    const auto mask =
        static_cast<std::uint32_t>(bits >= 32 ? 0xFFFFFFFFull : (1ull << bits) - 1);
    for (const std::size_t count : {0u, 1u, 63u, 64u, 65u, 10000u}) {
      for (const std::uint32_t v : {0u, mask}) {
        for (const std::size_t lead : {0u, 5u}) {  // 5 misaligns the run
          const std::string what = "bits=" + std::to_string(bits) + " count=" +
                                   std::to_string(count) + " v=" + std::to_string(v) +
                                   " lead=" + std::to_string(lead);
          util::Rng rng(bits * 131 + lead);
          solver::PackedColumn run(bits), loop(bits);
          for (std::size_t i = 0; i < lead; ++i) {
            const auto x = static_cast<std::uint32_t>(rng() & mask);
            run.push_back(x);
            loop.push_back(x);
          }
          run.append_run(v, count);
          for (std::size_t i = 0; i < count; ++i) loop.push_back(v);
          expect_same_words(run, loop, what);
          // Entries after the run land where a push_back loop puts them.
          run.push_back(mask & 0x5u);
          loop.push_back(mask & 0x5u);
          expect_same_words(run, loop, what + " then push_back");
        }
      }
    }
  }
}

TEST_F(PackedColumnTest, AppendRunDetachesBorrowedColumn) {
  for (unsigned bits : {0u, 3u, 17u, 32u}) {
    const auto mask =
        static_cast<std::uint32_t>(bits >= 32 ? 0xFFFFFFFFull : (1ull << bits) - 1);
    for (const std::uint32_t v : {0u, mask}) {
      const std::string what = "bits=" + std::to_string(bits) + " v=" + std::to_string(v);
      util::Rng rng(bits + 5);
      solver::PackedColumn loop(bits);
      for (int i = 0; i < 100; ++i) loop.push_back(static_cast<std::uint32_t>(rng() & mask));
      auto words = std::make_shared<std::vector<std::uint64_t>>(
          loop.words(), loop.words() + loop.word_count());
      const std::vector<std::uint64_t> before = *words;
      auto run = solver::PackedColumn::borrowed(bits, loop.size(), words->data(), words);
      run.append_run(v, 65);
      for (int i = 0; i < 65; ++i) loop.push_back(v);
      EXPECT_FALSE(run.is_borrowed()) << what;
      expect_same_words(run, loop, what);
      EXPECT_EQ(*words, before) << what << ": the borrowed buffer must stay untouched";
    }
  }
}

TEST_F(PackedColumnTest, AppendRepeatMatchesLoop) {
  for (unsigned bits : {0u, 1u, 3u, 7u, 13u, 32u}) {
    const std::uint64_t mask = bits >= 32 ? 0xFFFFFFFFull : (1ull << bits) - 1;
    for (const std::size_t period : {1u, 3u, 64u, 100u}) {
      for (const std::size_t times : {0u, 1u, 2u, 7u, 129u}) {
        util::Rng rng(bits * 7 + period);
        solver::PackedColumn rep(bits), loop(bits);
        rep.push_back(static_cast<std::uint32_t>(1 & mask));  // misalign
        loop.push_back(static_cast<std::uint32_t>(1 & mask));
        std::vector<std::uint32_t> pattern;
        for (std::size_t i = 0; i < period; ++i) {
          pattern.push_back(static_cast<std::uint32_t>(rng() & mask));
          rep.push_back(pattern.back());
        }
        rep.append_repeat(period, times);
        for (std::size_t t = 0; t <= times; ++t) {
          for (const std::uint32_t x : pattern) loop.push_back(x);
        }
        expect_same_words(rep, loop,
                          "bits=" + std::to_string(bits) + " period=" +
                              std::to_string(period) + " times=" + std::to_string(times));
      }
    }
  }
}

TEST_F(PackedColumnTest, ReserveAvoidsReallocation) {
  for (unsigned bits : {1u, 5u, 32u}) {
    solver::PackedColumn col(bits);
    col.reserve(5000);
    EXPECT_GE(col.memory_bytes(), (5000u * bits + 63) / 64 * sizeof(std::uint64_t));
    col.push_back(1);
    const std::uint64_t* words = col.words();
    const std::size_t bytes = col.memory_bytes();
    col.append_run(1, 3000);
    for (int i = 0; i < 999; ++i) col.push_back(0);
    col.append_run(1, 1000);
    EXPECT_EQ(col.size(), 5000u);
    EXPECT_EQ(col.words(), words) << "bits=" << bits;
    EXPECT_EQ(col.memory_bytes(), bytes) << "bits=" << bits;
  }
  // Reserving a borrowed column copies it into owned storage first.
  solver::PackedColumn owned(4);
  for (std::uint32_t i = 0; i < 40; ++i) owned.push_back(i % 16);
  auto words = std::make_shared<std::vector<std::uint64_t>>(
      owned.words(), owned.words() + owned.word_count());
  auto col = solver::PackedColumn::borrowed(4, owned.size(), words->data(), words);
  col.reserve(1000);
  EXPECT_FALSE(col.is_borrowed());
  EXPECT_GE(col.memory_bytes(), (1000u * 4 + 63) / 64 * sizeof(std::uint64_t));
  expect_same_words(col, owned, "reserved borrowed column");
}

TEST_F(PackedColumnTest, MixedWidthAppendAndEquality) {
  util::Rng rng(42);
  solver::PackedColumn narrow(5), wide;  // default is 32 bits
  for (int i = 0; i < 300; ++i) {
    const auto v = static_cast<std::uint32_t>(rng() & 31);
    narrow.push_back(v);
    wide.push_back(v);
  }
  EXPECT_EQ(narrow, wide);  // logical equality across widths
  EXPECT_EQ(wide, narrow);

  // Width-mismatched append falls back to element copies.
  solver::PackedColumn target;
  target.append(narrow, 10, 100);
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(target.get(i), narrow.get(i + 10));
  }

  narrow.push_back(0);
  EXPECT_NE(narrow, wide);
}

TEST_F(PackedColumnTest, SolutionSetPackedMatchesUnpacked) {
  // The same enumeration appended to a packed (from problem) and an
  // unpacked (arity-only) SolutionSet reads back identically.
  const auto spec = tiny_spec();
  auto problem = tuner::build_problem(spec, tuner::PipelineOptions::optimized());
  solver::SolutionSet packed(problem);
  solver::SolutionSet unpacked(problem.num_variables());
  util::Rng rng(3);
  std::vector<std::uint32_t> row(problem.num_variables());
  for (int i = 0; i < 500; ++i) {
    for (std::size_t v = 0; v < row.size(); ++v) {
      row[v] = static_cast<std::uint32_t>(rng.index(problem.domain(v).size()));
    }
    packed.append(row.data());
    unpacked.append(row.data());
  }
  ASSERT_EQ(packed.size(), unpacked.size());
  for (std::size_t v = 0; v < packed.num_vars(); ++v) {
    EXPECT_LT(packed.column(v).bits(), 32u);
    EXPECT_EQ(packed.column(v), unpacked.column(v));
  }
  for (std::size_t r = 0; r < packed.size(); ++r) {
    EXPECT_EQ(packed.index_row(r), unpacked.index_row(r));
  }
  EXPECT_LT(packed.memory_bytes(), unpacked.memory_bytes());
}

// ---------------------------------------------------------------------------
// Snapshot round trips
// ---------------------------------------------------------------------------

TEST_F(SnapshotTest, RoundTripTinySpace) {
  const auto spec = tiny_spec();
  searchspace::SearchSpace fresh(spec);
  searchspace::save_snapshot(fresh, path("tiny.tss"));
  const auto loaded = searchspace::load_snapshot(spec, path("tiny.tss"));
  expect_identical(fresh, loaded);
  EXPECT_GT(loaded.size(), 0u);
  EXPECT_DOUBLE_EQ(fresh.sparsity(), loaded.sparsity());
}

TEST_F(SnapshotTest, RoundTripSynthetic) {
  const auto synth = spaces::make_synthetic(3, 200000, 3, 7);
  searchspace::SearchSpace fresh(synth.spec);
  searchspace::save_snapshot(fresh, path("synth.tss"));
  expect_identical(fresh,
                   searchspace::load_snapshot(synth.spec, path("synth.tss")));
}

TEST_F(SnapshotTest, RoundTripRealWorldGemm) {
  const auto rw = spaces::gemm();
  searchspace::SearchSpace fresh(rw.spec);
  searchspace::save_snapshot(fresh, path("gemm.tss"));
  expect_identical(fresh,
                   searchspace::load_snapshot(rw.spec, path("gemm.tss")));
}

TEST_F(SnapshotTest, RoundTripRealWorldHotspotShapeVerify) {
  const auto rw = spaces::hotspot();
  searchspace::SearchSpace fresh(rw.spec);
  searchspace::save_snapshot(fresh, path("hotspot.tss"));
  // The fast cache-hit verification level must be just as identical.
  expect_identical(fresh, searchspace::load_snapshot(
                              rw.spec, path("hotspot.tss"),
                              searchspace::SnapshotVerify::kShape));
}

TEST_F(SnapshotTest, RoundTripExplicitMethod) {
  const auto spec = tiny_spec();
  const auto methods = tuner::construction_methods();
  const auto& atf = methods[1];  // ChainOfTrees enumerates in its own order
  ASSERT_EQ(atf.name, "ATF");
  searchspace::SearchSpace fresh(spec, atf);
  searchspace::save_snapshot(fresh, path("atf.tss"));
  expect_identical(fresh,
                   searchspace::load_snapshot(spec, atf, path("atf.tss")));
}

TEST_F(SnapshotTest, SaveOfReloadedSpaceIsByteIdentical) {
  const auto spec = tiny_spec();
  searchspace::SearchSpace fresh(spec);
  searchspace::save_snapshot(fresh, path("a.tss"));
  const auto loaded = searchspace::load_snapshot(spec, path("a.tss"));
  searchspace::save_snapshot(loaded, path("b.tss"));
  std::ifstream fa(path("a.tss"), std::ios::binary);
  std::ifstream fb(path("b.tss"), std::ios::binary);
  std::stringstream sa, sb;
  sa << fa.rdbuf();
  sb << fb.rdbuf();
  // Only the stored original-construction-seconds stat may differ; mask the
  // simpler way: the files are equal except that one f64 header field.
  std::string bytes_a = sa.str(), bytes_b = sb.str();
  ASSERT_EQ(bytes_a.size(), bytes_b.size());
  constexpr std::size_t kConstructionSecondsOffset = 104;  // see io.cpp layout
  for (std::size_t i = 0; i < 8; ++i) {
    bytes_a[kConstructionSecondsOffset + i] = 0;
    bytes_b[kConstructionSecondsOffset + i] = 0;
  }
  EXPECT_EQ(bytes_a, bytes_b);
}

// ---------------------------------------------------------------------------
// Rejection paths
// ---------------------------------------------------------------------------

TEST_F(SnapshotTest, RejectsMissingFile) {
  EXPECT_THROW(searchspace::load_snapshot(tiny_spec(), path("nope.tss")),
               searchspace::SnapshotError);
}

TEST_F(SnapshotTest, RejectsBadMagic) {
  const auto spec = tiny_spec();
  searchspace::SearchSpace fresh(spec);
  searchspace::save_snapshot(fresh, path("s.tss"));
  corrupt_byte(path("s.tss"), 0);
  EXPECT_THROW(searchspace::load_snapshot(spec, path("s.tss")),
               searchspace::SnapshotError);
}

TEST_F(SnapshotTest, RejectsVersionMismatch) {
  const auto spec = tiny_spec();
  searchspace::SearchSpace fresh(spec);
  searchspace::save_snapshot(fresh, path("s.tss"));
  corrupt_byte(path("s.tss"), 8);  // format-version field
  EXPECT_THROW(searchspace::load_snapshot(spec, path("s.tss")),
               searchspace::SnapshotError);
}

TEST_F(SnapshotTest, RejectsWrongFingerprint) {
  const auto spec = tiny_spec();
  searchspace::SearchSpace fresh(spec);
  searchspace::save_snapshot(fresh, path("s.tss"));

  // Same shape, one domain value changed.
  auto other = tuner::TuningProblem("tiny");
  other.add_param("block_size_x", {1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 2048})
      .add_param("block_size_y", {1, 2, 4, 8, 16, 32})
      .add_param("sh_power", {0, 1});
  other.add_constraint("32 <= block_size_x * block_size_y <= 1024");
  other.add_constraint("sh_power == 0 or block_size_x >= 16");
  EXPECT_THROW(searchspace::load_snapshot(other, path("s.tss")),
               searchspace::SnapshotError);

  // Same spec, different construction method (enumeration order differs).
  const auto methods = tuner::construction_methods();
  EXPECT_THROW(searchspace::load_snapshot(spec, methods[1], path("s.tss")),
               searchspace::SnapshotError);
}

TEST_F(SnapshotTest, RejectsTruncatedFile) {
  const auto spec = tiny_spec();
  searchspace::SearchSpace fresh(spec);
  searchspace::save_snapshot(fresh, path("s.tss"));
  const auto full = fs::file_size(path("s.tss"));
  fs::resize_file(path("s.tss"), full / 2);
  EXPECT_THROW(searchspace::load_snapshot(spec, path("s.tss")),
               searchspace::SnapshotError);
  // Shape-level verification catches truncation too (section bounds).
  EXPECT_THROW(searchspace::load_snapshot(spec, path("s.tss"),
                                          searchspace::SnapshotVerify::kShape),
               searchspace::SnapshotError);
}

TEST_F(SnapshotTest, RejectsCorruptedPayload) {
  const auto spec = tiny_spec();
  searchspace::SearchSpace fresh(spec);
  searchspace::save_snapshot(fresh, path("s.tss"));
  // Flip one byte in the middle of the file (payload sections); the full
  // verification level must detect it via the section checksums.
  corrupt_byte(path("s.tss"), fs::file_size(path("s.tss")) / 2);
  EXPECT_THROW(searchspace::load_snapshot(spec, path("s.tss"),
                                          searchspace::SnapshotVerify::kFull),
               searchspace::SnapshotError);
}

namespace {

/// The snapshot section checksum (four interleaved FNV-1a chains over
/// 64-bit words, see searchspace/io.cpp), recomputed the way a forger would.
std::uint64_t section_checksum(const char* p, std::size_t n) {
  constexpr std::uint64_t kPrime = 0x100000001B3ULL;
  std::uint64_t h[4] = {0xCBF29CE484222325ULL, 0x9E3779B97F4A7C15ULL,
                        0xC2B2AE3D27D4EB4FULL, 0x165667B19E3779F9ULL};
  for (std::size_t w = 0; w * 8 < n; ++w) {
    std::uint64_t v = 0;
    std::memcpy(&v, p + w * 8, 8);
    h[w & 3] = (h[w & 3] ^ v) * kPrime;
  }
  std::uint64_t out = (h[0] ^ h[1]) * kPrime;
  out = (out ^ h[2]) * kPrime;
  out = (out ^ h[3]) * kPrime;
  return out ^ n;
}

}  // namespace

TEST_F(SnapshotTest, RejectsForgedRowTableWithValidChecksum) {
  const auto rw = spaces::dedispersion();
  const searchspace::SearchSpace fresh(rw.spec);
  ASSERT_GT(fresh.size(), 1u);
  searchspace::save_snapshot(fresh, path("forged.tss"));

  // Point every row-table slot at row 0 — in range, so a slot-range check
  // alone accepts it — and re-sign section 3 so its checksum matches.
  std::string bytes;
  {
    std::ifstream in(path("forged.tss"), std::ios::binary);
    std::stringstream buffer;
    buffer << in.rdbuf();
    bytes = buffer.str();
  }
  constexpr std::size_t kHeaderBytes = 112;
  constexpr std::size_t kEntryBytes = 32;
  const std::size_t entry = kHeaderBytes + 2 * kEntryBytes;  // section 3
  std::uint32_t id = 0;
  std::uint64_t offset = 0;
  std::uint64_t size = 0;
  std::memcpy(&id, bytes.data() + entry, 4);
  std::memcpy(&offset, bytes.data() + entry + 8, 8);
  std::memcpy(&size, bytes.data() + entry + 16, 8);
  ASSERT_EQ(id, 3u);
  std::uint64_t slots = 0;
  std::memcpy(&slots, bytes.data() + offset, 8);
  ASSERT_LE(8 + slots * 4, size);
  std::memset(bytes.data() + offset + 8, 0, slots * 4);
  const std::uint64_t sum = section_checksum(bytes.data() + offset, size);
  std::memcpy(bytes.data() + entry + 24, &sum, 8);
  {
    std::ofstream out(path("forged.tss"), std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  // The checksum holds, so it is the occupancy check that must refuse it.
  try {
    searchspace::load_snapshot(rw.spec, path("forged.tss"),
                               searchspace::SnapshotVerify::kFull);
    ADD_FAILURE() << "kFull accepted a row table without empty slots";
  } catch (const searchspace::SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("occupancy"), std::string::npos)
        << e.what();
  }

  // The trusting cache-hit level accepts the file; a lookup miss must still
  // terminate after one lap of the table.
  const auto trusted = searchspace::load_snapshot(
      rw.spec, path("forged.tss"), searchspace::SnapshotVerify::kShape);
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(trusted.find(fresh.indices(1)).has_value());
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed.count(), 0.5);
  EXPECT_EQ(trusted.find(fresh.indices(0)), std::optional<std::size_t>(0));
}

// ---------------------------------------------------------------------------
// load_or_build cache
// ---------------------------------------------------------------------------

TEST_F(SnapshotTest, LoadOrBuildPopulatesAndHitsCache) {
  const auto spec = tiny_spec();
  const std::string cache = (dir_ / "cache").string();

  const auto built = searchspace::SearchSpace::load_or_build(spec, cache);
  ASSERT_TRUE(fs::exists(cache));
  std::size_t files = 0;
  for (const auto& e : fs::directory_iterator(cache)) {
    ++files;
    EXPECT_EQ(e.path().extension(), ".tss");
  }
  EXPECT_EQ(files, 1u);

  const auto reloaded = searchspace::SearchSpace::load_or_build(spec, cache);
  expect_identical(built, reloaded);

  // A different spec gets its own cache entry instead of a false hit.
  auto other = tiny_spec();
  other.add_constraint("block_size_y >= 2");
  const auto other_space = searchspace::SearchSpace::load_or_build(other, cache);
  EXPECT_NE(other_space.fingerprint(), built.fingerprint());
  EXPECT_LT(other_space.size(), built.size());
  files = 0;
  for ([[maybe_unused]] const auto& e : fs::directory_iterator(cache)) ++files;
  EXPECT_EQ(files, 2u);
}

TEST_F(SnapshotTest, LoadOrBuildRebuildsOnCorruptHeader) {
  const auto spec = tiny_spec();
  const std::string cache = (dir_ / "cache").string();
  const auto built = searchspace::SearchSpace::load_or_build(spec, cache);
  for (const auto& e : fs::directory_iterator(cache)) {
    corrupt_byte(e.path().string(), 0);  // smash the magic
  }
  const auto rebuilt = searchspace::SearchSpace::load_or_build(spec, cache);
  expect_identical(built, rebuilt);
}

TEST_F(SnapshotTest, LoadOrBuildRefusesLambdaSpecs) {
  auto spec = tiny_spec();
  spec.add_constraint({"block_size_x", "block_size_y"},
                      [](std::span<const csp::Value> v) {
                        return v[0].as_int() >= v[1].as_int();
                      },
                      "x >= y");
  const std::string cache = (dir_ / "cache").string();
  const auto space = searchspace::SearchSpace::load_or_build(spec, cache);
  EXPECT_GT(space.size(), 0u);
  // Native lambdas cannot be fingerprinted: nothing may be cached.
  EXPECT_FALSE(fs::exists(cache));
}

// ---------------------------------------------------------------------------
// CSV exactness
// ---------------------------------------------------------------------------

TEST_F(CsvTest, DoublesRoundTripExactly) {
  tuner::TuningProblem spec("reals");
  spec.add_param("alpha", std::vector<csp::Value>{csp::Value(0.1), csp::Value(0.5),
                                                  csp::Value(1.0 / 3.0),
                                                  csp::Value(2.0)});
  spec.add_param("mode", std::vector<csp::Value>{csp::Value("NHWC"),
                                                 csp::Value("NCHW")});
  searchspace::SearchSpace space(spec);
  ASSERT_EQ(space.size(), 8u);

  std::stringstream csv;
  searchspace::write_csv(space, csv);
  const auto rows = searchspace::read_csv(spec, csv);
  ASSERT_EQ(rows.size(), space.size());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const auto expect = space.config(r);
    ASSERT_EQ(rows[r].size(), expect.size());
    for (std::size_t p = 0; p < expect.size(); ++p) {
      EXPECT_EQ(rows[r][p], expect[p]) << "row " << r << " param " << p;
      EXPECT_EQ(rows[r][p].kind(), expect[p].kind()) << "canonical kind";
    }
  }
}

TEST_F(CsvTest, QuotedStringsWithCommasRoundTrip) {
  tuner::TuningProblem spec("strs");
  spec.add_param("layout", std::vector<csp::Value>{csp::Value("n,h,w,c"),
                                                   csp::Value("NCHW")});
  spec.add_param("width", {2, 4});
  searchspace::SearchSpace space(spec);
  ASSERT_EQ(space.size(), 4u);

  std::stringstream csv;
  searchspace::write_csv(space, csv);
  const auto rows = searchspace::read_csv(spec, csv);
  ASSERT_EQ(rows.size(), space.size());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    EXPECT_EQ(rows[r], space.config(r)) << "row " << r;
  }
}

TEST_F(CsvTest, WriteIsLocaleIndependent) {
  tuner::TuningProblem spec("reals");
  spec.add_param("alpha", std::vector<csp::Value>{csp::Value(0.5), csp::Value(1.5)});
  searchspace::SearchSpace space(spec);

  std::ostringstream plain;
  searchspace::write_csv(space, plain);

  // A stream imbued with a grouping/comma-decimal locale must produce the
  // same bytes (write_csv pins the classic locale internally).
  struct CommaDecimal : std::numpunct<char> {
    char do_decimal_point() const override { return ','; }
    char do_thousands_sep() const override { return '.'; }
    std::string do_grouping() const override { return "\3"; }
  };
  std::ostringstream weird;
  weird.imbue(std::locale(std::locale::classic(), new CommaDecimal));
  searchspace::write_csv(space, weird);
  EXPECT_EQ(plain.str(), weird.str());
  EXPECT_NE(plain.str().find("0.5"), std::string::npos);
}

TEST_F(CsvTest, TruncatedRowReportsLine) {
  const auto spec = tiny_spec();
  searchspace::SearchSpace space(spec);
  std::stringstream csv;
  searchspace::write_csv(space, csv);

  // Drop the last cell of the third data row.
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(csv, line)) lines.push_back(line);
  ASSERT_GT(lines.size(), 4u);
  lines[3] = lines[3].substr(0, lines[3].rfind(','));
  std::string mangled;
  for (const auto& l : lines) mangled += l + "\n";

  std::istringstream in(mangled);
  try {
    searchspace::read_csv(spec, in);
    FAIL() << "expected read_csv to reject the truncated row";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line 4"), std::string::npos) << what;
    EXPECT_NE(what.find("truncated"), std::string::npos) << what;
  }
}
