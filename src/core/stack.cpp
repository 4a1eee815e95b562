#include "core/stack.hpp"

#include "coin/threshold_coin.hpp"
#include "common/assert.hpp"

namespace dr::core {

ProcessStack::ProcessStack(net::Bus& bus, ProcessId pid, StackOptions opts,
                           const coin::CoinDealer* dealer,
                           OrderingRule::DeliverFn deliver,
                           OrderingRule::CommitFn on_commit) {
  rbc_ = rbc::make_factory(opts.rbc_kind)(bus, pid, opts.seed);
  if (stack_plays(opts.fault)) {
    DR_ASSERT_MSG(opts.fault == FaultKind::kMute ||
                      opts.rbc_kind == rbc::RbcKind::kBracha,
                  "crafted-SEND faults speak Bracha's wire format");
    auto byz = make_byzantine_rbc(opts.fault, bus, pid, std::move(rbc_));
    byz_ = byz.get();
    rbc_ = std::move(byz);
  }

  coin::ThresholdCoin* threshold_coin = nullptr;
  switch (opts.coin_mode) {
    case CoinMode::kLocal:
      coin_ = std::make_unique<coin::LocalCoin>(opts.seed ^ 0xC0111ULL,
                                                bus.n());
      break;
    case CoinMode::kThreshold:
    case CoinMode::kPiggyback: {
      DR_ASSERT_MSG(dealer != nullptr,
                    "threshold coin modes need the trusted dealer setup");
      auto tc = std::make_unique<coin::ThresholdCoin>(
          bus, coin::ProcessCoinKey(dealer, pid),
          /*broadcast_shares=*/opts.coin_mode == CoinMode::kThreshold);
      threshold_coin = tc.get();
      coin_ = std::move(tc);
      break;
    }
  }

  // The personality owns the wave geometry.
  builder_ = std::make_unique<dag::DagBuilder>(
      bus.committee(), pid, *rbc_, opts.builder,
      ordering_rounds_per_wave(opts.ordering));
  if (opts.coin_mode == CoinMode::kPiggyback) {
    builder_->enable_coin_piggyback(
        [threshold_coin](Wave w) { return threshold_coin->share_to_embed(w); },
        [threshold_coin](ProcessId from, Wave w, std::uint64_t y) {
          threshold_coin->ingest_share(from, w, y);
        });
  }
  rider_ = make_ordering(opts.ordering, *builder_, *coin_,
                         std::move(opts.bullshark));
  if (opts.gc_depth_rounds > 0) rider_->enable_gc(opts.gc_depth_rounds);
  rider_->set_deliver(std::move(deliver));
  rider_->set_commit_observer(std::move(on_commit));
}

}  // namespace dr::core
