#include "isa/program.hh"

#include <sys/mman.h>

#include <algorithm>
#include <cstring>
#include <new>

#include "common/logging.hh"

namespace rmt
{

ProgramBuilder &
ProgramBuilder::label(const std::string &name)
{
    auto [it, inserted] = labels.emplace(name, insts.size());
    if (!inserted)
        fatal("ProgramBuilder(%s): duplicate label '%s'", _name.c_str(),
              name.c_str());
    (void)it;
    return *this;
}

Addr
ProgramBuilder::here() const
{
    return Program::textBase + insts.size() * instBytes;
}

ProgramBuilder &
ProgramBuilder::emit(Op op, RegIndex rd, RegIndex ra, RegIndex rb,
                     std::int64_t imm)
{
    insts.push_back(StaticInst{op, rd, ra, rb, imm});
    return *this;
}

ProgramBuilder &
ProgramBuilder::emitBranch(Op op, RegIndex rd, RegIndex ra, RegIndex rb,
                           const std::string &lbl)
{
    fixups.push_back(Fixup{insts.size(), lbl});
    return emit(op, rd, ra, rb, 0);
}

Program
ProgramBuilder::build()
{
    for (const auto &fixup : fixups) {
        auto it = labels.find(fixup.label);
        if (it == labels.end())
            fatal("ProgramBuilder(%s): undefined label '%s'", _name.c_str(),
                  fixup.label.c_str());
        // Displacement is relative to the instruction after the branch.
        const auto target = static_cast<std::int64_t>(it->second);
        const auto after = static_cast<std::int64_t>(fixup.index + 1);
        insts[fixup.index].imm = (target - after) * instBytes;
    }
    fixups.clear();
    return Program(insts, _name);
}

DataMemory::DataMemory(std::size_t size_bytes)
    : bytes(size_bytes), touchedBits((pageCount() + 63) / 64, 0)
{
    if (bytes == 0)
        return;
    void *p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED)
        throw std::bad_alloc();
    mem = static_cast<std::uint8_t *>(p);
}

DataMemory::~DataMemory()
{
    if (mem)
        munmap(mem, bytes);
}

void
DataMemory::clear()
{
    // A private anonymous page dropped with MADV_DONTNEED reads as
    // zero on its next touch.
    if (mem && madvise(mem, bytes, MADV_DONTNEED) != 0)
        std::fill_n(mem, bytes, std::uint8_t{0});
    std::fill(touchedBits.begin(), touchedBits.end(), 0);
}

bool
DataMemory::pageIsZero(std::size_t p) const
{
    static const std::uint8_t zero[pageBytes] = {};
    return std::memcmp(page(p), zero, pageLen(p)) == 0;
}

void
DataMemory::loadPage(std::size_t p, const std::uint8_t *src)
{
    markTouched(p);
    std::copy_n(src, pageLen(p), mem + p * pageBytes);
}

} // namespace rmt
