// An in-process HatCaller for tests: stamps seqids as HatConnection does,
// keeps every envelope it is handed, and answers through a dispatcher.
#pragma once

#include <string>
#include <vector>

#include "core/runtime.h"

namespace hatrpc::core {

class LoopbackCaller : public HatCaller {
 public:
  explicit LoopbackCaller(HatDispatcher& d) : d_(d) {}

  sim::Task<Reply> call(std::string method, Envelope envelope) override {
    HatDispatcher::stamp_seqid(envelope.bytes(), ++seq_);
    sent.emplace_back(envelope.view().begin(), envelope.view().end());
    Buffer reply = co_await d_.process(sent.back());
    co_return HatDispatcher::reply_of(std::move(reply), method);
  }

  std::vector<Buffer> sent;

 private:
  HatDispatcher& d_;
  int32_t seq_ = 0;
};

}  // namespace hatrpc::core
