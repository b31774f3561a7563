// Compiled forward plans: the one inference path, split into a one-time
// compile and a cheap execute.
//
// Fault campaigns run the same forward pass thousands of times with only
// the fault masks changing, so ForwardPlan walks a Model ONCE for a fixed
// input shape and freezes everything that does not depend on the
// activations: per-layer output shapes, im2col gather maps, packed-weight
// references, per-image MAC counts, and workspace scratch-slot
// assignments. Executing the plan through a tensor::Workspace then performs
// zero heap allocations in steady state. Model::forward/evaluate/analyze
// compile a plan per call; campaigns and the server compile once and reuse
// it. Committed golden checksums of the logits (tests/plan_test.cpp) are
// the oracle for any change to layer arithmetic or engine call order.
//
// A plan runs any range of its root layers. A full pass is the range of all
// roots; a fault campaign starts each repetition at the first root that
// holds a faulted layer, from the clean activation a CleanPrefix computed
// once for the input batch.
//
// Lifecycle and ownership:
//   * A plan borrows the Model's layers; the Model must outlive the plan
//     (moving the Model is fine -- layer storage is unique_ptr-stable).
//   * A plan is immutable after construction and may be shared read-only by
//     any number of workers.
//   * Each worker executes through its own Workspace (and its own engine --
//     engines are stateful); one Workspace must never be used concurrently.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bnn/engine.hpp"
#include "bnn/model.hpp"
#include "core/annotations.hpp"
#include "core/sync.hpp"
#include "data/dataset.hpp"
#include "tensor/im2col.hpp"
#include "tensor/shape.hpp"
#include "tensor/workspace.hpp"

namespace flim::core {
class ThreadPool;
}

namespace flim::bnn {

/// Frozen per-layer lowering data, produced by Layer::plan in plan-walk
/// order (pre-order: a block's record precedes its children's).
struct PlanStep {
  const Layer* layer = nullptr;
  tensor::Shape out_shape;

  /// Conv lowering (binary_conv2d / conv2d): static geometry plus the
  /// precomputed per-image gather map (tensor::make_im2col_gather).
  tensor::ConvGeometry geom;
  std::int64_t positions = 0;  // output positions per image (dense: 1)
  std::vector<std::int32_t> gather;

  /// Per-image multiply-accumulates (Model::analyze, Table II): real ones
  /// run in CMOS, binary ones are XNOR-accumulates on crossbars. Blocks
  /// count zero; their children carry the work.
  std::int64_t real_macs = 0;
  std::int64_t binary_macs = 0;

  /// Frozen scratch shapes, so steady-state execution never constructs a
  /// Shape temporary (each would heap-allocate a small dims vector).
  tensor::Shape acc_shape;    // engine accumulator / gemm output
  tensor::Shape patch_shape;  // float im2col patches (real conv)

  /// Workspace scratch slots (-1 = unused by this step).
  int bit_slot = -1;       // packed ±1 activations
  int bit_rows_slot = -1;  // padded packed image rows (word-level im2col)
  int int_slot = -1;       // engine accumulator
  int float_slot_a = -1;  // float patches / block chain ping
  int float_slot_b = -1;  // gemm output / block chain pong
  int float_slot_c = -1;  // residual bypass
};

/// Mutable state threaded through the one-time plan walk.
class PlanContext {
 public:
  explicit PlanContext(tensor::Shape input_shape)
      : shape_(std::move(input_shape)) {}

  /// Shape of the activations entering the layer being planned.
  const tensor::Shape& shape() const { return shape_; }
  /// Records the planned layer's output shape (becomes the next input).
  void set_shape(tensor::Shape s) { shape_ = std::move(s); }

  /// Appends this layer's record and returns its index (indices stay valid
  /// while references may not -- children append to the same vector).
  std::size_t begin_step(const Layer& layer);
  PlanStep& step(std::size_t index) { return steps_[index]; }

  /// Reserves workspace slots; ids are stable across executions. A slot
  /// released by an earlier step is handed out again before a new one.
  int alloc_float_slot() { return alloc(free_float_, num_float_slots_); }
  int alloc_int_slot() { return alloc(free_int_, num_int_slots_); }
  int alloc_bit_slot() { return alloc(free_bit_, num_bit_slots_); }

  /// Returns every slot step `index` recorded to its free list. A leaf calls
  /// this at the end of plan(): its scratch is dead once it has written its
  /// output. A block calls it after planning its children: its chain and
  /// bypass buffers stay reserved while the children plan, so no child
  /// shares them, and are dead once the block has written its output.
  void release_slots(std::size_t index);

 private:
  friend class ForwardPlan;
  static int alloc(std::vector<int>& free, int& count);

  tensor::Shape shape_;
  std::vector<PlanStep> steps_;
  int num_float_slots_ = 0;
  int num_int_slots_ = 0;
  int num_bit_slots_ = 0;
  std::vector<int> free_float_;
  std::vector<int> free_int_;
  std::vector<int> free_bit_;
};

/// Per-execution state: the engine, the worker's arena, and a cursor over
/// the plan's step records. (Intra-gemm sharding pools are routed through
/// XnorExecutionEngine::set_thread_pool, not the context.)
class ExecContext {
 public:
  /// The cursor starts at record `cursor`: the first record of the root a
  /// ranged run begins with.
  ExecContext(const std::vector<PlanStep>& steps, tensor::Workspace& ws,
              XnorExecutionEngine& engine, std::size_t cursor)
      : steps_(steps), ws_(ws), engine_(engine), cursor_(cursor) {}

  XnorExecutionEngine& engine() { return engine_; }
  tensor::Workspace& ws() { return ws_; }

  /// Consumes the next plan record. Layers call this exactly once per
  /// execute(), in the same order plan() registered records.
  const PlanStep& next_step();

  /// Workspace buffer behind a planned slot id.
  tensor::FloatTensor& float_slot(int id);
  tensor::IntTensor& int_slot(int id);
  tensor::BitMatrix& bit_slot(int id);

  std::size_t cursor() const { return cursor_; }

 private:
  const std::vector<PlanStep>& steps_;
  tensor::Workspace& ws_;
  XnorExecutionEngine& engine_;
  std::size_t cursor_ = 0;
};

/// A compiled forward pass over a Model for one fixed input shape.
class ForwardPlan {
 public:
  /// Walks `model` once; throws std::invalid_argument when the model is
  /// empty or a layer rejects the shape.
  ForwardPlan(const Model& model, tensor::Shape input_shape);

  const tensor::Shape& input_shape() const { return root_shapes_.front(); }
  const tensor::Shape& output_shape() const { return root_shapes_.back(); }
  std::size_t num_steps() const { return steps_.size(); }
  const std::vector<PlanStep>& steps() const { return steps_; }

  /// Number of root layers (the Model's top-level layers).
  std::size_t num_roots() const { return roots_.size(); }
  /// Shape of the activation entering root `root`; root num_roots() is the
  /// output.
  const tensor::Shape& root_input_shape(std::size_t root) const;
  /// The root that holds the layer named `layer_name` (a layer inside a
  /// residual, concat or sequential block maps to the block). Throws
  /// std::invalid_argument when no layer of the plan has that name.
  std::size_t root_of(const std::string& layer_name) const;

  /// Runs the compiled pass; returns the logits, which live in `ws` until
  /// the next execution through that arena. `input` must match
  /// input_shape() exactly (engine fault timing depends on the batch
  /// extent). When `gemm_pool` is given, engines that support it shard
  /// XNOR-GEMM row blocks across the pool (bit-identical to serial).
  const tensor::FloatTensor& execute(const tensor::FloatTensor& input,
                                     tensor::Workspace& ws,
                                     XnorExecutionEngine& engine,
                                     core::ThreadPool* gemm_pool = nullptr)
      const;

  /// Runs roots [first, last) from `input`, the activation entering root
  /// `first`, and returns the activation leaving root last - 1 (`input`
  /// itself for an empty range). Each root writes the top-level buffer of
  /// `ws` that a full pass would have it write; `input` must not be the
  /// buffer root `first` writes (entry_buffer() never is). execute() is the
  /// range [0, num_roots()).
  const tensor::FloatTensor& execute_range(
      std::size_t first, std::size_t last, const tensor::FloatTensor& input,
      tensor::Workspace& ws, XnorExecutionEngine& engine,
      core::ThreadPool* gemm_pool = nullptr) const;

  /// The top-level buffer of `ws` that a full pass leaves the activation
  /// entering root `root` in (root >= 1).
  tensor::FloatTensor& entry_buffer(std::size_t root,
                                    tensor::Workspace& ws) const;

  /// Classification accuracy of the compiled pass over a batch.
  double evaluate(const data::Batch& batch, tensor::Workspace& ws,
                  XnorExecutionEngine& engine,
                  core::ThreadPool* gemm_pool = nullptr) const;

 private:
  /// Top-level buffer root `root` writes: the two alternate.
  int root_slot(std::size_t root) const {
    return root % 2 == 0 ? slot_a_ : slot_b_;
  }

  std::vector<const Layer*> roots_;  // borrowed from the Model
  /// First step record of each root, then steps_.size().
  std::vector<std::size_t> root_steps_;
  /// Shape entering each root, then the output shape.
  std::vector<tensor::Shape> root_shapes_;
  std::vector<PlanStep> steps_;
  int slot_a_ = -1;  // top-level ping-pong activation buffers
  int slot_b_ = -1;
};

/// The clean activations entering the roots of one plan for one input
/// batch. A repetition whose faults all sit in root r or later starts at r
/// from the stored activation; the roots in front of r computed it once for
/// every repetition, point and request that starts there.
///
/// Each root is filled on first request, once, by the reference engine from
/// the nearest root already stored below it, through a workspace local to
/// that fill (so no worker's arena grows for steps it never runs). Only
/// requested roots are stored. An activation whose values are all exactly
/// +1.0f or -1.0f (the output of a Sign) is stored packed, one bit per
/// value; any other is stored as floats. Thread-safe; borrows the plan and
/// the input, which must outlive it.
class CleanPrefix {
 public:
  CleanPrefix(const ForwardPlan& plan, const tensor::FloatTensor& input);

  const ForwardPlan& plan() const { return plan_; }
  const tensor::FloatTensor& input() const { return input_; }

  /// Runs roots [root, num_roots()) through `ws` and `engine`, starting
  /// from the clean activation entering `root`, and returns the logits.
  /// Root 0 runs the full pass from the input; root num_roots() returns the
  /// clean logits. Bit-identical to a full pass through `engine` whenever
  /// `engine` computes the roots in front of `root` as the reference
  /// engine does.
  const tensor::FloatTensor& execute_from(
      std::size_t root, tensor::Workspace& ws, XnorExecutionEngine& engine,
      core::ThreadPool* gemm_pool = nullptr);

  /// Number of roots filled so far.
  std::size_t fills() const;

 private:
  /// One stored activation: packed signs when `packed`, else floats.
  struct Entry {
    bool packed = false;
    tensor::BitMatrix bits;
    tensor::FloatTensor values;
  };

  /// The stored activation entering `root`, filled on first request.
  const Entry& entry(std::size_t root);
  /// Unpacks `e`, the activation entering `root`, into `dst`.
  void load(std::size_t root, const Entry& e, tensor::FloatTensor& dst,
            tensor::Workspace& ws) const;

  const ForwardPlan& plan_;
  const tensor::FloatTensor& input_;
  mutable core::Mutex mutex_;
  /// Indexed by root; null until filled, never changed after.
  std::vector<std::unique_ptr<const Entry>> entries_ FLIM_GUARDED_BY(mutex_);
  std::size_t fills_ FLIM_GUARDED_BY(mutex_) = 0;
};

}  // namespace flim::bnn
