#ifndef PRESERIAL_SEMANTICS_OP_CLASS_H_
#define PRESERIAL_SEMANTICS_OP_CLASS_H_

#include <cstddef>

namespace preserial::semantics {

// Operation classes of the paper's model (Sec. IV). The semantics of every
// operation a transaction performs is assumed a-priori known and summarized
// by its class; compatibility (Definition 1 / Table I) is decided at class
// granularity.
enum class OpClass {
  kRead = 0,           // SELECT of a data member.
  kInsert = 1,         // Object/member creation.
  kDelete = 2,         // Object/member removal.
  kUpdateAssign = 3,   // X = c
  kUpdateAddSub = 4,   // X = X + c  /  X = X - c
  kUpdateMulDiv = 5,   // X = X * c  /  X = X / c   (c != 0)
};

constexpr size_t kNumOpClasses = 6;

const char* OpClassName(OpClass c);

}  // namespace preserial::semantics

#endif  // PRESERIAL_SEMANTICS_OP_CLASS_H_
