// Explicit instantiations of Space-Saving for the key types the library
// uses, so downstream TUs link against one copy.
#include "hh/space_saving.hpp"

namespace rhhh {

template class SpaceSaving<Key128>;
template class SpaceSaving<std::uint64_t>;

}  // namespace rhhh
