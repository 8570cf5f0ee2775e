/**
 * @file
 * Whole-stream reads that notice a failed read.
 *
 * Streaming `is.rdbuf()` into a string turns a read that fails (EISDIR
 * on a directory opened as a file, EIO) into an empty or cut-short
 * text that the caller then misreads. readAll reads through
 * istream::read, so the failure sets badbit and the caller sees it.
 */

#ifndef HPIM_SIM_READ_ALL_HH
#define HPIM_SIM_READ_ALL_HH

#include <istream>
#include <optional>
#include <string>

namespace hpim::sim {

/** @return every byte left in @p in, or nullopt when a read fails. */
std::optional<std::string> readAll(std::istream &in);

} // namespace hpim::sim

#endif // HPIM_SIM_READ_ALL_HH
