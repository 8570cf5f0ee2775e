#include "sim/read_all.hh"

namespace hpim::sim {

std::optional<std::string>
readAll(std::istream &in)
{
    std::string text;
    char chunk[1 << 16];
    while (in.read(chunk, sizeof chunk), in.gcount() > 0)
        text.append(chunk, static_cast<std::size_t>(in.gcount()));
    if (in.bad())
        return std::nullopt;
    return text;
}

} // namespace hpim::sim
