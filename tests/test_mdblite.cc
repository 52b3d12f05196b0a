// mdblite tests: B+-tree correctness under heavy insert/update/delete load
// (property-checked against std::map), copy-on-write snapshot isolation,
// dual-meta commit/abort semantics, reader-table limits, freelist
// reclamation, overflow values, and cursor iteration.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "kv/mdblite.h"
#include "sim/rng.h"

namespace hatrpc::kv {
namespace {

std::string key_of(int i) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "key%08d", i);
  return buf;
}

TEST(Mdblite, EmptyGetReturnsNothing) {
  Env env;
  Txn txn = env.begin(false);
  EXPECT_EQ(txn.get("nope"), std::nullopt);
  EXPECT_EQ(txn.entry_count(), 0u);
}

TEST(Mdblite, PutGetSingle) {
  Env env;
  {
    Txn txn = env.begin(true);
    txn.put("alpha", "one");
    EXPECT_EQ(txn.get("alpha"), "one");  // visible inside own txn
    txn.commit();
  }
  Txn r = env.begin(false);
  EXPECT_EQ(r.get("alpha"), "one");
  EXPECT_EQ(r.entry_count(), 1u);
}

TEST(Mdblite, OverwriteReplacesValue) {
  Env env;
  {
    Txn t = env.begin(true);
    t.put("k", "v1");
    t.put("k", "v2");
    t.commit();
  }
  Txn r = env.begin(false);
  EXPECT_EQ(r.get("k"), "v2");
  EXPECT_EQ(r.entry_count(), 1u);
}

TEST(Mdblite, AbortDiscardsChanges) {
  Env env;
  {
    Txn t = env.begin(true);
    t.put("committed", "yes");
    t.commit();
  }
  {
    Txn t = env.begin(true);
    t.put("aborted", "no");
    t.abort();
  }
  {
    Txn t = env.begin(true);  // RAII abort via destructor
    t.put("dropped", "no");
  }
  Txn r = env.begin(false);
  EXPECT_EQ(r.get("committed"), "yes");
  EXPECT_EQ(r.get("aborted"), std::nullopt);
  EXPECT_EQ(r.get("dropped"), std::nullopt);
  EXPECT_EQ(env.stats().aborts, 2u);
}

TEST(Mdblite, SnapshotIsolationAcrossCommit) {
  Env env;
  {
    Txn t = env.begin(true);
    t.put("x", "old");
    t.commit();
  }
  Txn reader = env.begin(false);  // pins the current snapshot
  {
    Txn w = env.begin(true);
    w.put("x", "new");
    w.put("y", "added");
    w.commit();
  }
  // The old reader still sees its snapshot...
  EXPECT_EQ(reader.get("x"), "old");
  EXPECT_EQ(reader.get("y"), std::nullopt);
  reader.commit();
  // ...while a fresh reader sees the new state.
  Txn fresh = env.begin(false);
  EXPECT_EQ(fresh.get("x"), "new");
  EXPECT_EQ(fresh.get("y"), "added");
}

TEST(Mdblite, SingleWriterEnforced) {
  Env env;
  Txn w1 = env.begin(true);
  EXPECT_THROW(env.begin(true), std::runtime_error);
  w1.abort();
  EXPECT_NO_THROW(env.begin(true));
}

TEST(Mdblite, ReaderTableLimitEnforced) {
  Env env(EnvOptions{.max_readers = 3});
  std::vector<Txn> readers;
  for (int i = 0; i < 3; ++i) readers.push_back(env.begin(false));
  EXPECT_EQ(env.active_readers(), 3u);
  EXPECT_THROW(env.begin(false), std::runtime_error);
  readers.pop_back();  // frees a slot
  EXPECT_NO_THROW(env.begin(false));
}

TEST(Mdblite, ManyInsertsSplitPages) {
  Env env;
  constexpr int kN = 5000;
  {
    Txn t = env.begin(true);
    for (int i = 0; i < kN; ++i) t.put(key_of(i), "value-" + key_of(i));
    t.commit();
  }
  EXPECT_GT(env.page_count(), 10u);  // tree actually grew multiple levels
  Txn r = env.begin(false);
  EXPECT_EQ(r.entry_count(), static_cast<size_t>(kN));
  for (int i = 0; i < kN; i += 97)
    EXPECT_EQ(r.get(key_of(i)), "value-" + key_of(i)) << i;
  EXPECT_EQ(r.get("key99999999"), std::nullopt);
}

TEST(Mdblite, DeleteRemovesAndRebalances) {
  Env env;
  constexpr int kN = 2000;
  {
    Txn t = env.begin(true);
    for (int i = 0; i < kN; ++i) t.put(key_of(i), std::string(100, 'v'));
    t.commit();
  }
  {
    Txn t = env.begin(true);
    for (int i = 0; i < kN; i += 2) EXPECT_TRUE(t.del(key_of(i)));
    EXPECT_FALSE(t.del("absent"));
    t.commit();
  }
  Txn r = env.begin(false);
  EXPECT_EQ(r.entry_count(), static_cast<size_t>(kN / 2));
  for (int i = 0; i < kN; ++i) {
    if (i % 2 == 0) EXPECT_EQ(r.get(key_of(i)), std::nullopt);
    else EXPECT_EQ(r.get(key_of(i)), std::string(100, 'v'));
  }
}

TEST(Mdblite, DeleteEverythingEmptiesTree) {
  Env env;
  {
    Txn t = env.begin(true);
    for (int i = 0; i < 500; ++i) t.put(key_of(i), "x");
    t.commit();
  }
  {
    Txn t = env.begin(true);
    for (int i = 0; i < 500; ++i) EXPECT_TRUE(t.del(key_of(i)));
    t.commit();
  }
  Txn r = env.begin(false);
  EXPECT_EQ(r.entry_count(), 0u);
  EXPECT_EQ(r.get(key_of(0)), std::nullopt);
  // After all readers drain, shadowed pages become reusable.
  r.commit();
  Txn w = env.begin(true);
  w.put("fresh", "start");
  w.commit();
  EXPECT_GT(env.stats().reclaimed, 0u);
}

TEST(Mdblite, OverflowValuesRoundTrip) {
  Env env;
  std::string big(20000, 'B');  // far beyond a 4 KB page
  std::string medium(1500, 'M');
  {
    Txn t = env.begin(true);
    t.put("big", big);
    t.put("medium", medium);
    t.put("small", "s");
    t.commit();
  }
  Txn r = env.begin(false);
  EXPECT_EQ(r.get("big"), big);
  EXPECT_EQ(r.get("medium"), medium);
  EXPECT_EQ(r.get("small"), "s");
}

TEST(Mdblite, OverflowValueReplacedFreesOldPage) {
  Env env;
  {
    Txn t = env.begin(true);
    t.put("k", std::string(8000, 'a'));
    t.commit();
  }
  size_t before = env.live_pages();
  {
    Txn t = env.begin(true);
    t.put("k", std::string(8000, 'b'));
    t.commit();
  }
  Txn r = env.begin(false);
  EXPECT_EQ(r.get("k"), std::string(8000, 'b'));
  r.commit();
  // COW steady-state: the replaced overflow page is recycled, not leaked.
  Txn w = env.begin(true);
  w.put("k2", "x");
  w.commit();
  EXPECT_LE(env.live_pages(), before + 4);
}

TEST(Mdblite, FreelistRespectsLiveReaders) {
  Env env;
  {
    Txn t = env.begin(true);
    for (int i = 0; i < 200; ++i) t.put(key_of(i), std::string(64, 'v'));
    t.commit();
  }
  Txn pinned = env.begin(false);  // pins the old snapshot
  size_t pages_before = env.page_count();
  for (int round = 0; round < 5; ++round) {
    Txn w = env.begin(true);
    for (int i = 0; i < 200; i += 10)
      w.put(key_of(i), std::string(64, 'a' + round));
    w.commit();
  }
  // COW copies could not be recycled while the reader is live...
  EXPECT_GT(env.page_count(), pages_before);
  EXPECT_EQ(pinned.get(key_of(0)), std::string(64, 'v'));
  pinned.commit();
  // ...but after it finishes, page growth stops (reuse kicks in).
  size_t settled = env.page_count();
  for (int round = 0; round < 5; ++round) {
    Txn w = env.begin(true);
    for (int i = 0; i < 200; i += 10)
      w.put(key_of(i), std::string(64, 'f' + round));
    w.commit();
  }
  EXPECT_EQ(env.page_count(), settled);
}

TEST(Mdblite, CursorIteratesInOrder) {
  Env env;
  {
    Txn t = env.begin(true);
    for (int i : {5, 1, 9, 3, 7, 2, 8, 4, 6, 0})
      t.put(key_of(i), "v" + std::to_string(i));
    t.commit();
  }
  Txn r = env.begin(false);
  Cursor c(r);
  ASSERT_TRUE(c.first());
  std::string prev;
  int count = 0;
  do {
    EXPECT_GT(c.key(), prev);
    prev = c.key();
    ++count;
  } while (c.next());
  EXPECT_EQ(count, 10);
}

TEST(Mdblite, CursorSeekFindsLowerBound) {
  Env env;
  {
    Txn t = env.begin(true);
    for (int i = 0; i < 100; i += 10) t.put(key_of(i), "x");
    t.commit();
  }
  Txn r = env.begin(false);
  Cursor c(r);
  ASSERT_TRUE(c.seek(key_of(35)));
  EXPECT_EQ(c.key(), key_of(40));  // >= semantics
  ASSERT_TRUE(c.seek(key_of(40)));
  EXPECT_EQ(c.key(), key_of(40));  // exact
  EXPECT_FALSE(c.seek(key_of(95)));  // past the end
}

TEST(Mdblite, CursorSpansLeafBoundaries) {
  Env env;
  constexpr int kN = 3000;
  {
    Txn t = env.begin(true);
    for (int i = 0; i < kN; ++i) t.put(key_of(i), "v");
    t.commit();
  }
  Txn r = env.begin(false);
  Cursor c(r);
  int count = 0;
  for (bool ok = c.first(); ok; ok = c.next()) ++count;
  EXPECT_EQ(count, kN);
}

TEST(MdbliteNamedDbs, IndependentTrees) {
  Env env;
  {
    Txn t = env.begin(true);
    t.put("users", "alice", "1");
    t.put("users", "bob", "2");
    t.put("orders", "alice", "order-9");  // same key, different tree
    t.put("plain-default", "d");
    t.commit();
  }
  Txn r = env.begin(false);
  EXPECT_EQ(r.get("users", "alice"), "1");
  EXPECT_EQ(r.get("orders", "alice"), "order-9");
  EXPECT_EQ(r.get("users", "zzz"), std::nullopt);
  EXPECT_EQ(r.get("plain-default"), "d");       // default DB untouched
  EXPECT_EQ(r.get("users"), std::nullopt);      // not a default-DB key
  EXPECT_EQ(r.entry_count("users"), 2u);
  EXPECT_EQ(r.entry_count("orders"), 1u);
  EXPECT_EQ(r.entry_count(), 1u);
}

TEST(MdbliteNamedDbs, AtomicCommitAcrossTrees) {
  Env env;
  {
    Txn t = env.begin(true);
    t.put("a", "k", "v1");
    t.put("b", "k", "v1");
    t.commit();
  }
  {
    Txn t = env.begin(true);
    t.put("a", "k", "v2");
    t.put("b", "k", "v2");
    t.abort();  // must roll back BOTH trees
  }
  Txn r = env.begin(false);
  EXPECT_EQ(r.get("a", "k"), "v1");
  EXPECT_EQ(r.get("b", "k"), "v1");
}

TEST(MdbliteNamedDbs, SnapshotIsolationPerTree) {
  Env env;
  {
    Txn t = env.begin(true);
    t.put("logs", "e1", "old");
    t.commit();
  }
  Txn pinned = env.begin(false);
  {
    Txn w = env.begin(true);
    w.put("logs", "e1", "new");
    w.put("logs", "e2", "added");
    w.commit();
  }
  EXPECT_EQ(pinned.get("logs", "e1"), "old");
  EXPECT_EQ(pinned.entry_count("logs"), 1u);
  pinned.commit();
  Txn fresh = env.begin(false);
  EXPECT_EQ(fresh.get("logs", "e2"), "added");
}

TEST(MdbliteNamedDbs, CursorOverNamedTree) {
  Env env;
  {
    Txn t = env.begin(true);
    for (int i = 0; i < 50; ++i) t.put("idx", key_of(i), "v");
    t.put(key_of(999), "default-entry");
    t.commit();
  }
  Txn r = env.begin(false);
  Cursor c(r, "idx");
  int count = 0;
  for (bool ok = c.first(); ok; ok = c.next()) ++count;
  EXPECT_EQ(count, 50);
  Cursor d(r);  // default tree has exactly one entry
  int dcount = 0;
  for (bool ok = d.first(); ok; ok = d.next()) ++dcount;
  EXPECT_EQ(dcount, 1);
  Cursor e(r, "never-created");
  EXPECT_FALSE(e.first());
}

TEST(MdbliteNamedDbs, DeleteInNamedTree) {
  Env env;
  {
    Txn t = env.begin(true);
    for (int i = 0; i < 100; ++i) t.put("t", key_of(i), "v");
    t.commit();
  }
  {
    Txn t = env.begin(true);
    for (int i = 0; i < 100; i += 2) EXPECT_TRUE(t.del("t", key_of(i)));
    EXPECT_FALSE(t.del("t", "absent"));
    EXPECT_FALSE(t.del("other", key_of(1)));  // tree does not exist
    t.commit();
  }
  Txn r = env.begin(false);
  EXPECT_EQ(r.entry_count("t"), 50u);
}

TEST(Mdblite, AbortedOverflowPutLeavesPageWritesUnchanged) {
  Env env;
  {
    Txn t = env.begin(true);
    t.put("k", "v");
    t.commit();
  }
  const uint64_t before = env.stats().page_writes;
  {
    Txn t = env.begin(true);
    t.put("big", std::string(20000, 'B'));  // a 4-page overflow chain
    t.abort();
  }
  EXPECT_EQ(env.stats().page_writes, before);
  EXPECT_EQ(env.stats().aborts, 1u);
  // A commit still counts the chain, but only once it commits.
  Txn t = env.begin(true);
  t.put("big", std::string(20000, 'B'));
  CommitInfo info = t.commit();
  EXPECT_EQ(info.pages_written, 2u);  // the shadowed leaf + the overflow page
  EXPECT_EQ(env.stats().page_writes,
            before + info.pages_written + 20000 / 4096);
}

TEST(Mdblite, OverlongKeyThrowsLengthError) {
  Env env;  // 4 KB pages: keys up to 1024 B
  Txn t = env.begin(true);
  const std::string longest(1024, 'k');
  const std::string too_long(1025, 'k');
  EXPECT_NO_THROW(t.put(longest, "v"));
  EXPECT_THROW(t.put(too_long, "v"), std::length_error);
  EXPECT_NO_THROW(t.put("named", longest, "v"));
  EXPECT_THROW(t.put("named", too_long, "v"), std::length_error);
  t.commit();
  Txn r = env.begin(false);
  EXPECT_EQ(r.get(longest), "v");
  EXPECT_EQ(r.get("named", longest), "v");
  EXPECT_EQ(r.get(too_long), std::nullopt);
  EXPECT_EQ(r.entry_count(), 1u);
  EXPECT_EQ(r.entry_count("named"), 1u);
  // page_size / 4 must fit the packed cell's 16-bit key length.
  EXPECT_THROW(Env(EnvOptions{.page_size = 1 << 20}), std::invalid_argument);
  EXPECT_THROW(Env(EnvOptions{.page_size = 64}), std::invalid_argument);
}

TEST(Mdblite, PutFromCursorViewsIntoThePageItWrites) {
  // Cursor views point into page images; a put may write the page they
  // point into (one this txn already shadowed) and move its bytes.
  Env env;
  Txn t = env.begin(true);
  t.put("k1", "value-one");
  t.put("k2", "value-two");
  Cursor c(t);
  ASSERT_TRUE(c.first());
  t.put(c.key(), c.value());  // same-size overwrite with itself
  ASSERT_TRUE(c.first());
  t.put(c.value(), c.key());  // insert whose key is bytes of the same leaf
  ASSERT_TRUE(c.first());
  std::string longer(c.value());
  longer.append("-longer");
  t.put(c.key(), longer);  // the value grows and moves the next cell
  t.commit();
  Txn r = env.begin(false);
  EXPECT_EQ(r.get("k1"), "value-one-longer");
  EXPECT_EQ(r.get("k2"), "value-two");
  EXPECT_EQ(r.get("value-one"), "k1");
  EXPECT_EQ(r.entry_count(), 3u);
}

// Golden page shape: the ycsb-a key space (10k records of 24 B keys and
// 1000 B values, loaded in key order in one txn) under a seeded mix of
// single puts, 10-key multi-puts, deletes, same-size and different-size
// overwrites, inline<->overflow transitions, aborts and pinned readers.
// Every figure below was recorded with the structured (vector-of-strings)
// page layout; a page layout change that keeps Page::used() logical must
// reproduce them exactly, and so every virtual result that charges pages.
std::string ycsb_key(uint64_t i) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "user%019llu", (unsigned long long)i);
  std::string k(buf);
  k.resize(24, '0');
  return k;
}

std::string tagged_value(size_t n, uint64_t tag) {
  std::string v(n, static_cast<char>('a' + tag % 26));
  std::memcpy(v.data(), &tag, std::min(n, sizeof tag));
  return v;
}

TEST(Mdblite, GoldenPageShapeUnderYcsbMix) {
  constexpr uint64_t kRecords = 10000;
  constexpr size_t kValue = 1000;
  constexpr size_t kPage = 4096;
  Env env;
  sim::Rng rng(2024);
  std::map<std::string, std::string> model;  // the committed state
  uint64_t touched = 0, written = 0;
  {
    Txn t = env.begin(true);
    for (uint64_t i = 0; i < kRecords; ++i) {
      model[ycsb_key(i)] = tagged_value(kValue, i);
      t.put(ycsb_key(i), model[ycsb_key(i)]);
    }
    touched += t.pages_touched();
    written += t.commit().pages_written;
  }
  uint64_t next_key = kRecords;
  uint64_t tag = kRecords;
  std::vector<std::string> big_keys;
  std::optional<Txn> pinned;
  int pinned_left = 0;
  for (int round = 0; round < 400; ++round) {
    if (!pinned && round % 40 == 5) {
      pinned = env.begin(false);
      pinned_left = 6;
    }
    const bool aborting = rng.chance(0.08);
    std::map<std::string, std::optional<std::string>> pending;
    auto lookup = [&](const std::string& k) -> std::optional<std::string> {
      if (auto p = pending.find(k); p != pending.end()) return p->second;
      if (auto m = model.find(k); m != model.end()) return m->second;
      return std::nullopt;
    };
    Txn t = env.begin(true);
    auto put = [&](const std::string& k, size_t n) {
      std::string v = tagged_value(n, ++tag);
      t.put(k, v);
      pending[k] = std::move(v);
    };
    auto any_key = [&] { return ycsb_key(rng.bounded(next_key)); };
    const double dice = rng.uniform01();
    if (dice < 0.35) {
      put(any_key(), kValue);  // same-size overwrite (Put)
    } else if (dice < 0.55) {
      for (int i = 0; i < 10; ++i) put(any_key(), kValue);  // MultiPut
    } else if (dice < 0.65) {
      put(any_key(), 50 + rng.bounded(900));  // different-size overwrite
    } else if (dice < 0.72) {
      std::string k = any_key();  // inline -> overflow
      put(k, kPage / 4 + 1 + rng.bounded(12000));
      if (!aborting) big_keys.push_back(k);
    } else if (dice < 0.77 && !big_keys.empty()) {
      // overflow -> inline
      put(big_keys[rng.bounded(big_keys.size())], kValue);
    } else if (dice < 0.87) {
      for (int i = 0; i < 3; ++i) {
        std::string k = any_key();
        EXPECT_EQ(t.del(k), lookup(k).has_value()) << k;
        pending[k] = std::nullopt;
      }
    } else {
      for (int i = 0; i < 4; ++i) put(ycsb_key(next_key++), kValue);  // insert
    }
    for (int i = 0; i < 2; ++i) {
      std::string k = any_key();
      EXPECT_EQ(t.get(k), lookup(k)) << k;
    }
    touched += t.pages_touched();
    if (aborting) {
      t.abort();
    } else {
      written += t.commit().pages_written;
      for (auto& [k, v] : pending) {
        if (v) model[k] = std::move(*v);
        else model.erase(k);
      }
    }
    if (pinned && --pinned_left == 0) {
      pinned->commit();
      pinned.reset();
    }
  }
  Txn r = env.begin(false);
  ASSERT_EQ(r.entry_count(), model.size());
  Cursor c(r);
  auto it = model.begin();
  for (bool ok = c.first(); ok; ok = c.next(), ++it) {
    ASSERT_NE(it, model.end());
    ASSERT_EQ(c.key(), it->first);
    ASSERT_EQ(c.value(), it->second);
  }
  EXPECT_EQ(it, model.end());
  r.commit();

  // Recorded with the structured page layout.
  const EnvStats& s = env.stats();
  EXPECT_EQ(s.page_reads, 8429u);
  EXPECT_EQ(s.page_writes, 8402u);
  EXPECT_EQ(s.commits, 370u);
  EXPECT_EQ(s.aborts, 31u);
  EXPECT_EQ(s.reclaimed, 3433u);
  EXPECT_EQ(env.page_count(), 5291u);
  EXPECT_EQ(env.live_pages(), 5239u);
  EXPECT_EQ(touched, 6661u);
  EXPECT_EQ(written, 8379u);
}

// Property test: a long random mixed workload over three databases must
// match std::map exactly. Values are drawn 1-180 B, above page_size / 4
// (overflow pages) or, for a key already present, at its current size (the
// in-place overwrite).
class MdbliteRandomized : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MdbliteRandomized, MatchesReferenceModel) {
  constexpr size_t kPage = 1024;  // small pages -> deep trees
  const std::string dbs[] = {"", "left", "right"};
  sim::Rng rng(GetParam());
  Env env(EnvOptions{.page_size = kPage});
  std::map<std::string, std::map<std::string, std::string>> model;
  auto snapshot = [&] {
    Txn r = env.begin(false);
    decltype(model) rebuilt;
    for (const std::string& db : dbs) {
      Cursor c(r, db);
      for (bool ok = c.first(); ok; ok = c.next())
        rebuilt[db][std::string(c.key())] = c.value();
    }
    return rebuilt;
  };
  for (int round = 0; round < 40; ++round) {
    Txn t = env.begin(true);
    for (int op = 0; op < 100; ++op) {
      const std::string& db = dbs[rng.bounded(3)];
      auto& m = model[db];
      std::string key = key_of(static_cast<int>(rng.bounded(400)));
      double dice = rng.uniform01();
      if (dice < 0.55) {
        auto cur = m.find(key);
        size_t n;
        double size_dice = rng.uniform01();
        if (cur != m.end() && size_dice < 0.3) {
          n = cur->second.size();  // same size: overwritten in place
        } else if (size_dice < 0.4) {
          n = kPage / 4 + 1 + rng.bounded(3 * kPage);  // overflow page
        } else {
          n = rng.bounded(180) + 1;
        }
        std::string value(n, static_cast<char>('a' + rng.bounded(26)));
        t.put(db, key, value);
        m[key] = value;
      } else if (dice < 0.8) {
        bool in_tree = t.del(db, key);
        bool in_model = m.erase(key) > 0;
        EXPECT_EQ(in_tree, in_model) << db << "/" << key;
      } else {
        auto got = t.get(db, key);
        auto want = m.find(key);
        if (want == m.end()) {
          EXPECT_EQ(got, std::nullopt) << db << "/" << key;
        } else {
          EXPECT_EQ(got, want->second) << db << "/" << key;
        }
      }
    }
    if (rng.chance(0.1)) {
      // Abort rolled us back to the last committed state: re-read it.
      t.abort();
      model = snapshot();
    } else {
      t.commit();
    }
    // Full-content check each round via cursors.
    Txn r = env.begin(false);
    for (const std::string& db : dbs) {
      const auto& m = model[db];
      EXPECT_EQ(r.entry_count(db), m.size()) << db;
      Cursor c(r, db);
      auto it = m.begin();
      for (bool ok = c.first(); ok; ok = c.next(), ++it) {
        ASSERT_NE(it, m.end());
        EXPECT_EQ(c.key(), it->first);
        EXPECT_EQ(c.value(), it->second);
      }
      EXPECT_EQ(it, m.end());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MdbliteRandomized,
                         ::testing::Values(1, 2, 3, 42, 1337));

}  // namespace
}  // namespace hatrpc::kv
