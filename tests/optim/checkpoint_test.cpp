#include "optim/checkpoint.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

namespace asyncml::optim {
namespace {

std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TEST(Checkpoint, RoundTripModelAndAux) {
  SolverCheckpoint cp;
  cp.update_index = 1234;
  cp.model = linalg::DenseVector{1.0, -2.5, 3.25};
  cp.aux["alpha_bar"] = linalg::DenseVector{0.5, 0.5, 0.5};
  cp.aux["momentum"] = linalg::DenseVector{9.0};

  const std::string path = temp_path("asyncml_ckpt_roundtrip.bin");
  ASSERT_TRUE(save_checkpoint(path, cp).is_ok());

  const auto loaded = load_checkpoint(path);
  ASSERT_TRUE(loaded.is_ok());
  const SolverCheckpoint& back = loaded.value();
  EXPECT_EQ(back.update_index, 1234u);
  EXPECT_EQ(back.model, cp.model);
  ASSERT_EQ(back.aux.size(), 2u);
  EXPECT_EQ(back.aux.at("alpha_bar"), cp.aux.at("alpha_bar"));
  EXPECT_EQ(back.aux.at("momentum"), cp.aux.at("momentum"));
  std::filesystem::remove(path);
}

TEST(Checkpoint, EmptyAuxAllowed) {
  SolverCheckpoint cp;
  cp.model = linalg::DenseVector{42.0};
  const std::string path = temp_path("asyncml_ckpt_noaux.bin");
  ASSERT_TRUE(save_checkpoint(path, cp).is_ok());
  const auto loaded = load_checkpoint(path);
  ASSERT_TRUE(loaded.is_ok());
  EXPECT_TRUE(loaded.value().aux.empty());
  std::filesystem::remove(path);
}

TEST(Checkpoint, ReservedAuxNameRejected) {
  SolverCheckpoint cp;
  cp.model = linalg::DenseVector{1.0};
  cp.aux["model"] = linalg::DenseVector{2.0};
  EXPECT_FALSE(save_checkpoint(temp_path("asyncml_ckpt_bad.bin"), cp).is_ok());
}

TEST(Checkpoint, MissingFileIsNotFound) {
  const auto loaded = load_checkpoint("/nonexistent/dir/ckpt.bin");
  ASSERT_FALSE(loaded.is_ok());
  EXPECT_EQ(loaded.status().code(), support::StatusCode::kNotFound);
}

TEST(Checkpoint, BadMagicRejected) {
  const std::string path = temp_path("asyncml_ckpt_garbage.bin");
  {
    std::ofstream out(path, std::ios::binary);
    out << "not a checkpoint at all";
  }
  const auto loaded = load_checkpoint(path);
  ASSERT_FALSE(loaded.is_ok());
  EXPECT_EQ(loaded.status().code(), support::StatusCode::kInvalidArgument);
  std::filesystem::remove(path);
}

TEST(Checkpoint, TruncatedFileRejected) {
  SolverCheckpoint cp;
  cp.update_index = 7;
  cp.model = linalg::DenseVector(64, 1.0);
  const std::string path = temp_path("asyncml_ckpt_trunc.bin");
  ASSERT_TRUE(save_checkpoint(path, cp).is_ok());
  // Truncate mid-vector.
  std::filesystem::resize_file(path, 40);
  EXPECT_FALSE(load_checkpoint(path).is_ok());
  std::filesystem::remove(path);
}

TEST(Checkpoint, V2RoundTripCarriesVersionRoundAndCounters) {
  SolverCheckpoint cp;
  cp.update_index = 100;
  cp.model_version = 97;
  cp.round = 412;
  cp.model = linalg::DenseVector{1.0, 2.0};
  cp.counters["tasks_completed"] = 1234;
  cp.counters["retries"] = 7;

  const std::string path = temp_path("asyncml_ckpt_v2.bin");
  ASSERT_TRUE(save_checkpoint(path, cp).is_ok());
  const auto loaded = load_checkpoint(path);
  ASSERT_TRUE(loaded.is_ok());
  EXPECT_EQ(loaded.value().model_version, 97u);
  EXPECT_EQ(loaded.value().round, 412u);
  ASSERT_EQ(loaded.value().counters.size(), 2u);
  EXPECT_EQ(loaded.value().counters.at("tasks_completed"), 1234u);
  EXPECT_EQ(loaded.value().counters.at("retries"), 7u);
  std::filesystem::remove(path);
}

namespace raw {

void u32(std::ofstream& out, std::uint32_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}
void u64(std::ofstream& out, std::uint64_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}
void name(std::ofstream& out, const std::string& s) {
  u32(out, static_cast<std::uint32_t>(s.size()));
  out.write(s.data(), static_cast<std::streamsize>(s.size()));
}
/// Magic + v2 header (update index, model version, round, 0 counters).
void v2_header(std::ofstream& out) {
  out.write("AMLCKPT2", 8);
  u64(out, 1);
  u64(out, 1);
  u64(out, 1);
  u32(out, 0);
}

}  // namespace raw

TEST(Checkpoint, V1FileIsRejected) {
  // The retired v1 layout (update index + vectors, no version/round/counters)
  // is a bad magic now, however well-formed the rest of the file is.
  const std::string path = temp_path("asyncml_ckpt_v1.bin");
  {
    std::ofstream out(path, std::ios::binary);
    out.write("AMLCKPT1", 8);
    raw::u64(out, 55);  // update index
    raw::u32(out, 1);
    raw::name(out, "model");
    raw::u64(out, 2);
    const double values[2] = {4.0, 8.0};
    out.write(reinterpret_cast<const char*>(values), sizeof(values));
  }
  const auto loaded = load_checkpoint(path);
  ASSERT_FALSE(loaded.is_ok());
  EXPECT_EQ(loaded.status().code(), support::StatusCode::kInvalidArgument);
  std::filesystem::remove(path);
}

TEST(Checkpoint, VectorLengthOverrunningFileRejectedWithoutAllocating) {
  // A corrupted dim within the sanity bound but far past end-of-file must be
  // caught by the bytes-remaining check, not by attempting the allocation.
  const std::string path = temp_path("asyncml_ckpt_overrun.bin");
  {
    std::ofstream out(path, std::ios::binary);
    raw::v2_header(out);
    raw::u32(out, 1);
    raw::name(out, "model");
    raw::u64(out, 1ULL << 31);  // claims 16 GiB of doubles; file holds none
  }
  const auto loaded = load_checkpoint(path);
  ASSERT_FALSE(loaded.is_ok());
  EXPECT_EQ(loaded.status().code(), support::StatusCode::kInvalidArgument);
  std::filesystem::remove(path);
}

TEST(Checkpoint, AbsurdVectorDimRejected) {
  const std::string path = temp_path("asyncml_ckpt_absurd.bin");
  {
    std::ofstream out(path, std::ios::binary);
    raw::v2_header(out);
    raw::u32(out, 1);
    raw::name(out, "model");
    raw::u64(out, (1ULL << 32) + 1);
  }
  EXPECT_FALSE(load_checkpoint(path).is_ok());
  std::filesystem::remove(path);
}

TEST(Checkpoint, AbsurdCounterCountRejected) {
  const std::string path = temp_path("asyncml_ckpt_counters.bin");
  {
    std::ofstream out(path, std::ios::binary);
    out.write("AMLCKPT2", 8);
    raw::u64(out, 1);
    raw::u64(out, 1);
    raw::u64(out, 1);
    raw::u32(out, 50'000);  // > the 10'000 sanity cap
  }
  EXPECT_FALSE(load_checkpoint(path).is_ok());
  std::filesystem::remove(path);
}

TEST(Checkpoint, MissingModelVectorRejected) {
  const std::string path = temp_path("asyncml_ckpt_nomodel.bin");
  {
    std::ofstream out(path, std::ios::binary);
    raw::v2_header(out);
    raw::u32(out, 1);
    raw::name(out, "alpha_bar");  // aux only; "model" never appears
    raw::u64(out, 1);
    const double value = 1.0;
    out.write(reinterpret_cast<const char*>(&value), sizeof(value));
  }
  const auto loaded = load_checkpoint(path);
  ASSERT_FALSE(loaded.is_ok());
  EXPECT_EQ(loaded.status().code(), support::StatusCode::kInvalidArgument);
  std::filesystem::remove(path);
}

TEST(Checkpoint, ResumeReproducesContinuation) {
  // The intended workflow: run K updates, checkpoint, restart from the file,
  // continue — the continued state matches an uninterrupted run because the
  // checkpoint carries everything the serial SAGA server owns.
  // (Serial stand-in for the driver loop; the distributed solvers' server
  // state is exactly {w, alpha_bar, update index}.)
  linalg::DenseVector w{1.0, 2.0};
  linalg::DenseVector aux{0.1, 0.2};
  for (int k = 0; k < 5; ++k) {
    w[0] -= 0.1 * aux[0];
    aux[1] += 0.01;
  }

  SolverCheckpoint cp;
  cp.update_index = 5;
  cp.model = w;
  cp.aux["state"] = aux;
  const std::string path = temp_path("asyncml_ckpt_resume.bin");
  ASSERT_TRUE(save_checkpoint(path, cp).is_ok());

  auto restored = load_checkpoint(path);
  ASSERT_TRUE(restored.is_ok());
  linalg::DenseVector w2 = restored.value().model;
  linalg::DenseVector aux2 = restored.value().aux.at("state");
  for (std::uint64_t k = restored.value().update_index; k < 10; ++k) {
    w2[0] -= 0.1 * aux2[0];
    aux2[1] += 0.01;
  }

  // Uninterrupted reference.
  linalg::DenseVector w_ref{1.0, 2.0};
  linalg::DenseVector aux_ref{0.1, 0.2};
  for (int k = 0; k < 10; ++k) {
    w_ref[0] -= 0.1 * aux_ref[0];
    aux_ref[1] += 0.01;
  }
  EXPECT_EQ(w2, w_ref);
  EXPECT_EQ(aux2, aux_ref);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace asyncml::optim
