/**
 * @file
 * Constant name-keyed factory table, shared by the cache-policy and
 * channel-scheduler registries: (name, description, factory) rows in
 * table order. An unknown name is fatal, listing the registered ones —
 * a typo'd policy or scheduler must never silently run the default.
 */

#ifndef NVSIM_CORE_REGISTRY_HH
#define NVSIM_CORE_REGISTRY_HH

#include <initializer_list>
#include <string>
#include <vector>

#include "core/logging.hh"

namespace nvsim
{

template <class Factory>
class NameRegistry
{
  public:
    struct Entry
    {
        std::string name;
        std::string description;
        Factory factory;
    };

    /**
     * @p what names an entry in error messages ("cache policy"). Rows
     * are appended one by one, not range-copied: the heap layout this
     * leaves decides whether glibc trims the heap after each
     * MemorySystem is destroyed, which moves perfbench kernels_1lm
     * setup_s by half.
     */
    NameRegistry(const char *what, std::initializer_list<Entry> entries)
        : what_(what)
    {
        for (const Entry &e : entries)
            entries_.push_back(e);
    }

    bool known(const std::string &name) const { return find(name); }

    /** Registered names, in table order. */
    std::vector<std::string>
    names() const
    {
        std::vector<std::string> out;
        for (const Entry &e : entries_)
            out.push_back(e.name);
        return out;
    }

    /** One-line description of @p name (empty if unknown). */
    std::string
    description(const std::string &name) const
    {
        const Entry *e = find(name);
        return e ? e->description : std::string();
    }

    /** The row for @p name; fatal, listing every name, if unknown. */
    const Entry &
    at(const std::string &name) const
    {
        if (const Entry *e = find(name))
            return *e;
        std::string list;
        for (const std::string &n : names())
            list += (list.empty() ? "" : ", ") + n;
        fatal("unknown %s '%s' (registered: %s)", what_, name.c_str(),
              list.c_str());
    }

  private:
    const Entry *
    find(const std::string &name) const
    {
        for (const Entry &e : entries_) {
            if (name == e.name)
                return &e;
        }
        return nullptr;
    }

    const char *what_;
    std::vector<Entry> entries_;
};

} // namespace nvsim

#endif // NVSIM_CORE_REGISTRY_HH
