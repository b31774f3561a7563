#include "bnn/plan.hpp"

#include <algorithm>
#include <cstring>

#include "core/check.hpp"
#include "tensor/ops.hpp"

namespace flim::bnn {

std::size_t PlanContext::begin_step(const Layer& layer) {
  PlanStep step;
  step.layer = &layer;
  steps_.push_back(std::move(step));
  return steps_.size() - 1;
}

int PlanContext::alloc(std::vector<int>& free, int& count) {
  if (free.empty()) return count++;
  const int id = free.back();
  free.pop_back();
  return id;
}

void PlanContext::release_slots(std::size_t index) {
  const PlanStep& st = steps_[index];
  for (const int id : {st.float_slot_a, st.float_slot_b, st.float_slot_c}) {
    if (id >= 0) free_float_.push_back(id);
  }
  if (st.int_slot >= 0) free_int_.push_back(st.int_slot);
  for (const int id : {st.bit_slot, st.bit_rows_slot}) {
    if (id >= 0) free_bit_.push_back(id);
  }
}

const PlanStep& ExecContext::next_step() {
  FLIM_REQUIRE(cursor_ < steps_.size(),
               "plan cursor overran the step records; plan() and execute() "
               "traversal orders diverged");
  return steps_[cursor_++];
}

// Slot-id validation stays on in Release: a stale -1 sentinel would wrap to
// SIZE_MAX and grow the arena unboundedly instead of failing loudly, and
// the check is cold relative to the buffer work behind it.
tensor::FloatTensor& ExecContext::float_slot(int id) {
  FLIM_REQUIRE(id >= 0, "plan step references an unassigned float slot");
  return ws_.float_slot(static_cast<std::size_t>(id));
}

tensor::IntTensor& ExecContext::int_slot(int id) {
  FLIM_REQUIRE(id >= 0, "plan step references an unassigned int slot");
  return ws_.int_slot(static_cast<std::size_t>(id));
}

tensor::BitMatrix& ExecContext::bit_slot(int id) {
  FLIM_REQUIRE(id >= 0, "plan step references an unassigned bit slot");
  return ws_.bit_slot(static_cast<std::size_t>(id));
}

ForwardPlan::ForwardPlan(const Model& model, tensor::Shape input_shape) {
  FLIM_REQUIRE(!model.layers().empty(), "model has no layers");
  PlanContext pc(std::move(input_shape));
  slot_a_ = pc.alloc_float_slot();
  slot_b_ = pc.alloc_float_slot();
  roots_.reserve(model.layers().size());
  for (const LayerPtr& layer : model.layers()) {
    roots_.push_back(layer.get());
    root_steps_.push_back(pc.steps_.size());
    root_shapes_.push_back(pc.shape());
    layer->plan(pc);
  }
  root_steps_.push_back(pc.steps_.size());
  root_shapes_.push_back(pc.shape());
  steps_ = std::move(pc.steps_);
}

const tensor::Shape& ForwardPlan::root_input_shape(std::size_t root) const {
  FLIM_REQUIRE(root < root_shapes_.size(), "root index out of range");
  return root_shapes_[root];
}

std::size_t ForwardPlan::root_of(const std::string& layer_name) const {
  for (std::size_t r = 0; r < roots_.size(); ++r) {
    for (std::size_t i = root_steps_[r]; i < root_steps_[r + 1]; ++i) {
      if (steps_[i].layer->name() == layer_name) return r;
    }
  }
  FLIM_REQUIRE(false, "the plan holds no layer named " + layer_name);
  return roots_.size();
}

const tensor::FloatTensor& ForwardPlan::execute(
    const tensor::FloatTensor& input, tensor::Workspace& ws,
    XnorExecutionEngine& engine, core::ThreadPool* gemm_pool) const {
  return execute_range(0, roots_.size(), input, ws, engine, gemm_pool);
}

const tensor::FloatTensor& ForwardPlan::execute_range(
    std::size_t first, std::size_t last, const tensor::FloatTensor& input,
    tensor::Workspace& ws, XnorExecutionEngine& engine,
    core::ThreadPool* gemm_pool) const {
  FLIM_REQUIRE(first <= last && last <= roots_.size(),
               "root range out of bounds");
  FLIM_REQUIRE(input.shape() == root_shapes_[first],
               "input shape " + input.shape().to_string() +
                   " does not match the planned shape " +
                   root_shapes_[first].to_string());
  ExecContext ec(steps_, ws, engine, root_steps_[first]);
  // The pool is installed for this execution only; restore serial behaviour
  // even on exceptions so a later direct use of the same engine can never
  // touch a stale (possibly destroyed) pool.
  struct PoolGuard {
    XnorExecutionEngine& engine;
    ~PoolGuard() { engine.set_thread_pool(nullptr); }
  } guard{engine};
  engine.set_thread_pool(gemm_pool);
  const tensor::FloatTensor* cur = &input;
  for (std::size_t r = first; r < last; ++r) {
    tensor::FloatTensor& dst =
        ws.float_slot(static_cast<std::size_t>(root_slot(r)));
    FLIM_REQUIRE(&dst != cur,
                 "a root's input must not be the buffer it writes");
    roots_[r]->execute(*cur, dst, ec);
    cur = &dst;
  }
  FLIM_REQUIRE(ec.cursor() == root_steps_[last],
               "plan execution consumed a different number of step records "
               "than planned");
  return *cur;
}

tensor::FloatTensor& ForwardPlan::entry_buffer(std::size_t root,
                                               tensor::Workspace& ws) const {
  FLIM_REQUIRE(root >= 1 && root <= roots_.size(),
               "only roots 1..num_roots() enter from a buffer");
  return ws.float_slot(static_cast<std::size_t>(root_slot(root - 1)));
}

double ForwardPlan::evaluate(const data::Batch& batch, tensor::Workspace& ws,
                             XnorExecutionEngine& engine,
                             core::ThreadPool* gemm_pool) const {
  const tensor::FloatTensor& logits =
      execute(batch.images, ws, engine, gemm_pool);
  return tensor::accuracy(logits, batch.labels);
}

CleanPrefix::CleanPrefix(const ForwardPlan& plan,
                         const tensor::FloatTensor& input)
    : plan_(plan), input_(input), entries_(plan.num_roots() + 1) {
  FLIM_REQUIRE(input.shape() == plan.input_shape(),
               "prefix input shape " + input.shape().to_string() +
                   " does not match the planned shape " +
                   plan.input_shape().to_string());
}

const tensor::FloatTensor& CleanPrefix::execute_from(
    std::size_t root, tensor::Workspace& ws, XnorExecutionEngine& engine,
    core::ThreadPool* gemm_pool) {
  if (root == 0) return plan_.execute(input_, ws, engine, gemm_pool);
  tensor::FloatTensor& dst = plan_.entry_buffer(root, ws);
  load(root, entry(root), dst, ws);
  return plan_.execute_range(root, plan_.num_roots(), dst, ws, engine,
                             gemm_pool);
}

std::size_t CleanPrefix::fills() const {
  const core::MutexLock lock(mutex_);
  return fills_;
}

const CleanPrefix::Entry& CleanPrefix::entry(std::size_t root) {
  FLIM_REQUIRE(root >= 1 && root < entries_.size(), "root index out of range");
  const core::MutexLock lock(mutex_);
  if (entries_[root] != nullptr) return *entries_[root];
  // Run from the nearest stored root below (root 0 is the input itself).
  std::size_t from = root - 1;
  while (from > 0 && entries_[from] == nullptr) --from;
  tensor::Workspace ws;
  ReferenceEngine reference;
  const tensor::FloatTensor* start = &input_;
  if (from > 0) {
    tensor::FloatTensor& buffer = plan_.entry_buffer(from, ws);
    load(from, *entries_[from], buffer, ws);
    start = &buffer;
  }
  const tensor::FloatTensor& out =
      plan_.execute_range(from, root, *start, ws, reference);
  auto e = std::make_unique<Entry>();
  const float* v = out.data();
  e->packed = std::all_of(v, v + out.numel(),
                          [](float x) { return x == 1.0f || x == -1.0f; });
  if (e->packed) {
    e->bits = tensor::BitMatrix(1, out.numel());
    e->bits.pack_rows_from_float(v);
  } else {
    e->values = out;
  }
  entries_[root] = std::move(e);
  ++fills_;
  return *entries_[root];
}

void CleanPrefix::load(std::size_t root, const Entry& e,
                       tensor::FloatTensor& dst, tensor::Workspace& ws) const {
  ws.reshape(dst, plan_.root_input_shape(root));
  float* out = dst.data();
  if (!e.packed) {
    std::memcpy(out, e.values.data(),
                static_cast<std::size_t>(dst.numel()) * sizeof(float));
    return;
  }
  const std::uint64_t* words = e.bits.row_words(0);
  for (std::int64_t i = 0; i < dst.numel(); ++i) {
    out[i] = ((words[i / 64] >> (i % 64)) & 1u) != 0 ? 1.0f : -1.0f;
  }
}

}  // namespace flim::bnn
