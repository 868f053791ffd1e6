#include "petri/reuse.hpp"

namespace rap::petri {

bool ReuseStore::attach(const CompiledNet& compiled) {
    const std::size_t mwords = compiled.marking_words();
    const std::size_t twords = compiled.enabled_words();
    if (!store_) {
        mwords_ = mwords;
        twords_ = twords;
        digest_ = compiled.structure_digest();
        // Layout: marking + link + claim words + the enabled row.
        store_.emplace(mwords_, 2 + twords_);
        return true;
    }
    if (mwords != mwords_ || twords != twords_) {
        ++fallbacks_;
        return false;
    }
    if (compiled.structure_digest() != digest_) {
        digest_ = compiled.structure_digest();
        rows_epoch_ = std::uint64_t{epoch_} + 1;  // the next pass
        ++invalidations_;
    }
    return true;
}

}  // namespace rap::petri
