// Every ProtocolKind, in enum order, for tests that sweep all protocols.
#pragma once

#include "proto/channel.h"

namespace hatrpc::proto {

inline constexpr ProtocolKind kAllProtocols[] = {
    ProtocolKind::kEagerSendRecv,    ProtocolKind::kDirectWriteSend,
    ProtocolKind::kChainedWriteSend, ProtocolKind::kWriteRndv,
    ProtocolKind::kReadRndv,         ProtocolKind::kDirectWriteImm,
    ProtocolKind::kPilaf,            ProtocolKind::kFarm,
    ProtocolKind::kRfp,              ProtocolKind::kHerd,
    ProtocolKind::kHybridEagerRndv,  ProtocolKind::kArGrpc,
};

}  // namespace hatrpc::proto
