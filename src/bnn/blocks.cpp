#include "bnn/blocks.hpp"

#include <cstring>

#include "bnn/plan.hpp"
#include "core/check.hpp"
#include "tensor/ops.hpp"

namespace flim::bnn {

namespace {

std::int64_t sum_real(const std::vector<LayerPtr>& layers) {
  std::int64_t n = 0;
  for (const auto& l : layers) n += l->real_param_count();
  return n;
}

std::int64_t sum_binary(const std::vector<LayerPtr>& layers) {
  std::int64_t n = 0;
  for (const auto& l : layers) n += l->binary_param_count();
  return n;
}

/// Plans a block-internal chain: children append their records after the
/// block's own (pre-order), mirroring execute_chain's traversal.
void plan_chain(const std::vector<LayerPtr>& layers, PlanContext& pc) {
  for (const auto& l : layers) l->plan(pc);
}

/// Executes a chain through the block's two ping-pong slots, leaving the
/// final child's output in `out`. An empty chain copies input to out.
void execute_chain(const std::vector<LayerPtr>& layers,
                   const tensor::FloatTensor& input, tensor::FloatTensor& out,
                   int slot_a, int slot_b, ExecContext& ec) {
  if (layers.empty()) {
    ec.ws().reshape(out, input.shape());
    std::memcpy(out.data(), input.data(),
                static_cast<std::size_t>(input.numel()) * sizeof(float));
    return;
  }
  const tensor::FloatTensor* cur = &input;
  for (std::size_t i = 0; i + 1 < layers.size(); ++i) {
    tensor::FloatTensor& dst =
        ec.float_slot((i % 2 == 0) ? slot_a : slot_b);
    layers[i]->execute(*cur, dst, ec);
    cur = &dst;
  }
  layers.back()->execute(*cur, out, ec);
}

}  // namespace

Sequential::Sequential(std::string name, std::vector<LayerPtr> children)
    : Layer(std::move(name)), children_(std::move(children)) {
  for (const auto& c : children_) {
    FLIM_REQUIRE(c != nullptr, "sequential child must not be null");
  }
}

std::int64_t Sequential::real_param_count() const { return sum_real(children_); }
std::int64_t Sequential::binary_param_count() const {
  return sum_binary(children_);
}

void Sequential::plan(PlanContext& pc) const {
  const std::size_t si = pc.begin_step(*this);
  const int slot_a = pc.alloc_float_slot();
  const int slot_b = pc.alloc_float_slot();
  plan_chain(children_, pc);
  PlanStep& st = pc.step(si);
  st.float_slot_a = slot_a;
  st.float_slot_b = slot_b;
  st.out_shape = pc.shape();
  pc.release_slots(si);
}

void Sequential::execute(const tensor::FloatTensor& input,
                         tensor::FloatTensor& out, ExecContext& ec) const {
  const PlanStep& st = ec.next_step();
  execute_chain(children_, input, out, st.float_slot_a, st.float_slot_b, ec);
}

ResidualBlock::ResidualBlock(std::string name, std::vector<LayerPtr> body,
                             LayerPtr shortcut)
    : Layer(std::move(name)),
      body_(std::move(body)),
      shortcut_(std::move(shortcut)) {
  FLIM_REQUIRE(!body_.empty(), "residual block needs a body");
  for (const auto& l : body_) {
    FLIM_REQUIRE(l != nullptr, "residual body layer must not be null");
  }
}

void ResidualBlock::plan(PlanContext& pc) const {
  const tensor::Shape in_shape = pc.shape();
  const std::size_t si = pc.begin_step(*this);
  const int slot_a = pc.alloc_float_slot();
  const int slot_b = pc.alloc_float_slot();
  const int slot_c = pc.alloc_float_slot();  // bypass
  plan_chain(body_, pc);
  const tensor::Shape main_shape = pc.shape();
  tensor::Shape bypass_shape = in_shape;
  if (shortcut_ != nullptr) {
    pc.set_shape(in_shape);
    shortcut_->plan(pc);
    bypass_shape = pc.shape();
  }
  FLIM_REQUIRE(main_shape == bypass_shape,
               "residual branch shapes must match (" + main_shape.to_string() +
                   " vs " + bypass_shape.to_string() + ")");
  PlanStep& st = pc.step(si);
  st.float_slot_a = slot_a;
  st.float_slot_b = slot_b;
  st.float_slot_c = slot_c;
  st.out_shape = main_shape;
  pc.set_shape(main_shape);
  pc.release_slots(si);
}

void ResidualBlock::execute(const tensor::FloatTensor& input,
                            tensor::FloatTensor& out, ExecContext& ec) const {
  const PlanStep& st = ec.next_step();
  execute_chain(body_, input, out, st.float_slot_a, st.float_slot_b, ec);
  if (shortcut_ != nullptr) {
    tensor::FloatTensor& bypass = ec.float_slot(st.float_slot_c);
    shortcut_->execute(input, bypass, ec);
    tensor::add_inplace(out, bypass);
  } else {
    tensor::add_inplace(out, input);
  }
}

std::int64_t ResidualBlock::real_param_count() const {
  return sum_real(body_) + (shortcut_ ? shortcut_->real_param_count() : 0);
}
std::int64_t ResidualBlock::binary_param_count() const {
  return sum_binary(body_) + (shortcut_ ? shortcut_->binary_param_count() : 0);
}

ConcatBlock::ConcatBlock(std::string name, std::vector<LayerPtr> body)
    : Layer(std::move(name)), body_(std::move(body)) {
  FLIM_REQUIRE(!body_.empty(), "concat block needs a body");
  for (const auto& l : body_) {
    FLIM_REQUIRE(l != nullptr, "concat body layer must not be null");
  }
}

void ConcatBlock::plan(PlanContext& pc) const {
  const tensor::Shape in_shape = pc.shape();
  FLIM_REQUIRE(in_shape.rank() == 4, "concat block expects NCHW input");
  const std::size_t si = pc.begin_step(*this);
  const int slot_a = pc.alloc_float_slot();
  const int slot_b = pc.alloc_float_slot();
  plan_chain(body_, pc);
  const tensor::Shape grown = pc.shape();
  FLIM_REQUIRE(grown.rank() == 4 && grown[0] == in_shape[0] &&
                   grown[2] == in_shape[2] && grown[3] == in_shape[3],
               "concat body must preserve batch and spatial dims");
  PlanStep& st = pc.step(si);
  st.float_slot_a = slot_a;
  st.float_slot_b = slot_b;
  st.out_shape = tensor::Shape{in_shape[0], in_shape[1] + grown[1],
                               in_shape[2], in_shape[3]};
  pc.set_shape(st.out_shape);
  pc.release_slots(si);
}

void ConcatBlock::execute(const tensor::FloatTensor& input,
                          tensor::FloatTensor& out, ExecContext& ec) const {
  const PlanStep& st = ec.next_step();
  // The grown branch ends in one of the block's own slots (never `out`,
  // which receives the concatenation).
  const tensor::FloatTensor* cur = &input;
  for (std::size_t i = 0; i < body_.size(); ++i) {
    tensor::FloatTensor& dst =
        ec.float_slot((i % 2 == 0) ? st.float_slot_a : st.float_slot_b);
    body_[i]->execute(*cur, dst, ec);
    cur = &dst;
  }
  const tensor::FloatTensor* grown = cur;

  const std::int64_t n = input.shape()[0];
  const std::int64_t c0 = input.shape()[1];
  const std::int64_t c1 = grown->shape()[1];
  const std::int64_t hw = input.shape()[2] * input.shape()[3];
  ec.ws().reshape(out, st.out_shape);
  for (std::int64_t b = 0; b < n; ++b) {
    float* dst = out.data() + b * (c0 + c1) * hw;
    const float* src0 = input.data() + b * c0 * hw;
    const float* src1 = grown->data() + b * c1 * hw;
    std::copy(src0, src0 + c0 * hw, dst);
    std::copy(src1, src1 + c1 * hw, dst + c0 * hw);
  }
}

std::int64_t ConcatBlock::real_param_count() const { return sum_real(body_); }
std::int64_t ConcatBlock::binary_param_count() const {
  return sum_binary(body_);
}

}  // namespace flim::bnn
