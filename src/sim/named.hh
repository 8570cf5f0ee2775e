/**
 * @file
 * Base class giving simulation components a hierarchical name.
 */

#ifndef HPIM_SIM_NAMED_HH
#define HPIM_SIM_NAMED_HH

#include <string>
#include <utility>

namespace hpim::sim {

/** Mixin providing a stable, hierarchical component name. */
class Named
{
  public:
    explicit Named(std::string name) : _name(std::move(name)) {}
    virtual ~Named() = default;

    /** @return the full hierarchical name, e.g. "hmc.vault3.bank1". */
    const std::string &name() const { return _name; }

  private:
    std::string _name;
};

} // namespace hpim::sim

#endif // HPIM_SIM_NAMED_HH
