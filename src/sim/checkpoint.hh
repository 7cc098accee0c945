/**
 * @file
 * Serializable-state interface for checkpoint/restore.
 *
 * Each component has one checkpoint(StateIO) walk that names every
 * field of its state once. Over a CheckpointWriter the walk appends
 * each field; over a CheckpointReader it reads each field back in
 * place and rejects a value the field cannot hold. The encoding is
 * type-tagged so a reader that drifts out of sync with the writer
 * fails loudly (CheckpointError) instead of silently misinterpreting
 * bytes, and sectioned so component boundaries are verified by name.
 *
 * CheckpointStore persists blobs keyed by an arbitrary string: the
 * file embeds the full key and a format magic, both verified on
 * load, so a stale or foreign file is treated as a miss, never
 * deserialized.
 */

#ifndef DRISIM_SIM_CHECKPOINT_HH
#define DRISIM_SIM_CHECKPOINT_HH

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace drisim::sim
{

/** Thrown on any malformed or mismatching checkpoint stream. */
class CheckpointError : public std::runtime_error
{
  public:
    explicit CheckpointError(const std::string &what)
        : std::runtime_error("checkpoint: " + what)
    {}
};

/** Accumulates a type-tagged serialization of component state. */
class CheckpointWriter
{
  public:
    void putU64(std::uint64_t v);
    void putI64(std::int64_t v);
    /** Exact bit pattern — round-trips NaN and -0.0. */
    void putF64(double v);
    void putBool(bool v);
    void putString(std::string_view s);

    /** Open a named section (component boundary). */
    void beginSection(std::string_view name);
    void endSection();

    /** The serialized blob. Valid only when all sections closed. */
    const std::string &bytes() const;

  private:
    void raw64(std::uint64_t v);

    std::string buf_;
    unsigned depth_ = 0;
};

/**
 * Reads a blob produced by CheckpointWriter. Every accessor verifies
 * the type tag (and section name) before consuming; any mismatch or
 * premature end of stream throws CheckpointError.
 */
class CheckpointReader
{
  public:
    explicit CheckpointReader(std::string bytes);

    std::uint64_t getU64();
    std::int64_t getI64();
    double getF64();
    bool getBool();
    std::string getString();

    void beginSection(std::string_view name);
    void endSection();

    /** True when every byte has been consumed. */
    bool atEnd() const { return pos_ == buf_.size(); }

    /** Bytes not yet consumed. */
    std::size_t remaining() const { return buf_.size() - pos_; }

  private:
    char takeTag();
    void expectTag(char want);
    std::uint64_t raw64();
    std::string takeBytes(std::uint64_t n);

    std::string buf_;
    std::size_t pos_ = 0;
};

/**
 * One direction of a component's checkpoint walk. It converts from a
 * writer or a reader, so c.checkpoint(w) snapshots c and
 * c.checkpoint(r) restores it. Fields are encoded by type: bool as
 * Bool, floating as F64, signed as I64, unsigned and enums as U64.
 */
class StateIO
{
  public:
    StateIO(CheckpointWriter &w) : w_(&w) {}
    StateIO(CheckpointReader &r) : r_(&r) {}

    /** True over a reader: guards read-only checks and the rebuilds
     *  of derived state after a restore. */
    bool restoring() const { return r_ != nullptr; }

    /** Write each field in order, or read each back in place; a
     *  value a field's type cannot hold throws. C arrays go element
     *  by element. */
    template <typename... T>
    void operator()(T &...fields)
    {
        (field(fields), ...);
    }

    /** A value the config implies (a size, a layout magic, a flavour
     *  flag): written on snapshot, and must match on restore. */
    template <typename T>
    void expect(T v, const char *what)
    {
        T got = v;
        (*this)(got);
        if (got != v)
            throw CheckpointError(std::string(what) + " mismatch");
    }

    /** A byte vector of config-implied length. */
    template <typename Byte>
    void bytes(std::vector<Byte> &v, const char *what)
    {
        static_assert(sizeof(Byte) == 1);
        if (w_) {
            w_->putString(std::string_view(
                reinterpret_cast<const char *>(v.data()), v.size()));
            return;
        }
        const std::string s = r_->getString();
        if (s.size() != v.size())
            throw CheckpointError(std::string(what) + " size mismatch");
        std::memcpy(v.data(), s.data(), s.size());
    }

    /**
     * The length of the variable-length sequence @p c, whose elements
     * the caller walks next. On restore @p c is resized to it, after
     * checking it against @p max and against the bytes left (every
     * element takes at least one).
     */
    template <typename Seq>
    void length(Seq &c, const char *what,
                std::uint64_t max = ~std::uint64_t{0})
    {
        std::uint64_t n = c.size();
        (*this)(n);
        if (!r_)
            return;
        if (n > max || n > r_->remaining())
            throw CheckpointError(std::string(what) +
                                  " length out of range");
        c.resize(n);
    }

    /** Open and close a named section (a component boundary). */
    void begin(std::string_view name)
    {
        w_ ? w_->beginSection(name) : r_->beginSection(name);
    }
    void end() { w_ ? w_->endSection() : r_->endSection(); }

  private:
    template <typename T>
    void field(T &f)
    {
        if constexpr (std::is_array_v<T>) {
            for (auto &e : f)
                field(e);
        } else if constexpr (std::is_same_v<T, bool>) {
            if (w_)
                w_->putBool(f);
            else
                f = r_->getBool();
        } else if constexpr (std::is_floating_point_v<T>) {
            if (w_)
                w_->putF64(f);
            else
                f = static_cast<T>(r_->getF64());
        } else if constexpr (std::is_enum_v<T>) {
            using U = std::underlying_type_t<T>;
            if (w_)
                w_->putU64(static_cast<std::uint64_t>(f));
            else
                f = static_cast<T>(fit<U>(r_->getU64()));
        } else if constexpr (std::is_signed_v<T>) {
            if (w_)
                w_->putI64(f);
            else
                f = fit<T>(r_->getI64());
        } else {
            static_assert(std::is_unsigned_v<T>);
            if (w_)
                w_->putU64(f);
            else
                f = fit<T>(r_->getU64());
        }
    }

    template <typename T, typename V>
    static T fit(V v)
    {
        if (!std::in_range<T>(v))
            throw CheckpointError("value " + std::to_string(v) +
                                  " out of its field's range");
        return static_cast<T>(v);
    }

    CheckpointWriter *w_ = nullptr;
    CheckpointReader *r_ = nullptr;
};

/** Process-wide checkpoint activity, for bench-side reporting. */
struct CheckpointCounters
{
    std::uint64_t saves = 0;
    /** Snapshots whose walk restored every component. */
    std::uint64_t restores = 0;
};

CheckpointCounters checkpointCounters();

/** Count one restore that completed (CheckpointStore::load() alone
 *  does not). */
void countRestore();

/**
 * Directory of checkpoint blobs addressed by string key. Files are
 * named by a hash of the key but store the full key; load() verifies
 * magic and key and reports a miss on any mismatch or corruption.
 */
class CheckpointStore
{
  public:
    /** Creates @p dir (and parents) if needed. */
    explicit CheckpointStore(std::string dir);

    /** @return true and fill @p blobOut on a verified hit. */
    bool load(const std::string &key, std::string &blobOut) const;

    /** Atomically (write-then-rename) persist @p blob under @p key. */
    void save(const std::string &key, const std::string &blob) const;

    const std::string &dir() const { return dir_; }

  private:
    std::string pathFor(const std::string &key) const;

    std::string dir_;
};

/** FNV-1a 64-bit over @p s. */
std::uint64_t fnv1a64(std::string_view s);

/** 16-digit lowercase hex of @p v. */
std::string toHex64(std::uint64_t v);

/** Inverse of toHex64 (lowercase hex, up to 16 digits); 0 on any
 *  non-hex input. */
std::uint64_t fromHex64(std::string_view s);

} // namespace drisim::sim

#endif // DRISIM_SIM_CHECKPOINT_HH
