#include "gtm/managed_txn.h"

#include <algorithm>

#include "common/strings.h"
#include "gtm/object_state.h"

namespace preserial::gtm {

namespace {

bool IdBefore(const ObjectState* obj, const ObjectId& id) {
  return obj->id < id;
}

}  // namespace

Result<storage::Value> ManagedTxn::GetTemp(const Cell& cell) const {
  auto it = temp_.find(cell);
  if (it == temp_.end()) {
    return Status::NotFound(StrFormat(
        "txn %llu has no virtual copy of %s#%zu",
        static_cast<unsigned long long>(id_), cell.object.c_str(),
        cell.member));
  }
  return it->second;
}

Result<semantics::OpClass> ManagedTxn::GrantedClass(const Cell& cell) const {
  auto it = granted_.find(cell);
  if (it == granted_.end()) {
    return Status::NotFound(StrFormat(
        "txn %llu holds no grant on %s#%zu",
        static_cast<unsigned long long>(id_), cell.object.c_str(),
        cell.member));
  }
  return it->second;
}

void ManagedTxn::NoteInvolved(ObjectState* object) {
  auto it = std::lower_bound(involved_.begin(), involved_.end(), object->id,
                             IdBefore);
  if (it == involved_.end() || (*it)->id != object->id) {
    involved_.insert(it, object);
  }
}

bool ManagedTxn::IsInvolved(const ObjectId& object) const {
  auto it = std::lower_bound(involved_.begin(), involved_.end(), object,
                             IdBefore);
  return it != involved_.end() && (*it)->id == object;
}

}  // namespace preserial::gtm
