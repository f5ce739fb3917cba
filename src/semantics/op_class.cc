#include "semantics/op_class.h"

namespace preserial::semantics {

const char* OpClassName(OpClass c) {
  switch (c) {
    case OpClass::kRead:
      return "read";
    case OpClass::kInsert:
      return "insert";
    case OpClass::kDelete:
      return "delete";
    case OpClass::kUpdateAssign:
      return "update-assign";
    case OpClass::kUpdateAddSub:
      return "update-add/sub";
    case OpClass::kUpdateMulDiv:
      return "update-mul/div";
  }
  return "?";
}

}  // namespace preserial::semantics
