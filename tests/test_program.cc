#include <gtest/gtest.h>

#include <vector>

#include "isa/program.hh"

using namespace rmt;

TEST(Program, BuilderEmitsInOrder)
{
    ProgramBuilder b("t");
    b.li(intReg(1), 5).addi(intReg(2), intReg(1), 1).halt();
    Program p = b.build();
    ASSERT_EQ(p.size(), 3u);
    EXPECT_EQ(p.insts()[0].op, Op::AddI);
    EXPECT_EQ(p.insts()[2].op, Op::Halt);
    EXPECT_EQ(p.entry(), Program::textBase);
}

TEST(Program, BackwardLabelResolution)
{
    ProgramBuilder b("t");
    b.label("top");
    b.nop();
    b.br("top");
    Program p = b.build();
    // br at index 1; displacement from index 2 back to 0 = -8 bytes.
    EXPECT_EQ(p.insts()[1].imm, -8);
}

TEST(Program, ForwardLabelResolution)
{
    ProgramBuilder b("t");
    b.beq(intReg(1), intReg(2), "end");
    b.nop();
    b.nop();
    b.label("end");
    b.halt();
    Program p = b.build();
    // beq at 0; target index 3; displacement (3-1)*4 = 8.
    EXPECT_EQ(p.insts()[0].imm, 8);
}

TEST(Program, FetchAndContains)
{
    ProgramBuilder b("t");
    b.nop().halt();
    Program p = b.build();
    EXPECT_TRUE(p.contains(Program::textBase));
    EXPECT_TRUE(p.contains(Program::textBase + 4));
    EXPECT_FALSE(p.contains(Program::textBase + 8));
    EXPECT_FALSE(p.contains(Program::textBase + 2));    // misaligned
    EXPECT_FALSE(p.contains(0));
    EXPECT_EQ(p.fetch(Program::textBase).op, Op::Nop);
    // Out-of-range decodes as Halt (wrong-path safety).
    EXPECT_EQ(p.fetch(Program::textBase + 800).op, Op::Halt);
    EXPECT_EQ(p.fetch(0x10).op, Op::Halt);
}

TEST(Program, HereTracksAddresses)
{
    ProgramBuilder b("t");
    EXPECT_EQ(b.here(), Program::textBase);
    b.nop();
    EXPECT_EQ(b.here(), Program::textBase + 4);
}

TEST(DataMemory, ReadWriteRoundTrip)
{
    DataMemory mem(4096);
    mem.write(0x10, 8, 0x1122334455667788ull);
    EXPECT_EQ(mem.read(0x10, 8), 0x1122334455667788ull);
    // Little-endian sub-reads.
    EXPECT_EQ(mem.read(0x10, 1), 0x88u);
    EXPECT_EQ(mem.read(0x10, 2), 0x7788u);
    EXPECT_EQ(mem.read(0x10, 4), 0x55667788u);
    EXPECT_EQ(mem.read(0x14, 4), 0x11223344u);
}

TEST(DataMemory, PartialOverwrite)
{
    DataMemory mem(64);
    mem.write(0, 8, ~0ull);
    mem.write(2, 1, 0);
    EXPECT_EQ(mem.read(0, 8), 0xFFFFFFFFFF00FFFFull);
}

TEST(DataMemory, OutOfBoundsIsBenign)
{
    DataMemory mem(64);
    EXPECT_EQ(mem.read(64, 1), 0u);
    EXPECT_EQ(mem.read(60, 8), 0u);     // straddles the end
    mem.write(100, 8, 42);              // dropped
    EXPECT_EQ(mem.read(56, 8), 0u);
    EXPECT_FALSE(mem.inBounds(60, 8));
    EXPECT_TRUE(mem.inBounds(56, 8));
    // Wrap-around addresses must not pass the bounds check.
    EXPECT_FALSE(mem.inBounds(~Addr{0}, 8));
}

namespace
{

std::vector<std::size_t>
touchedPages(const DataMemory &mem)
{
    std::vector<std::size_t> pages;
    mem.forEachTouchedPage([&](std::size_t p) { pages.push_back(p); });
    return pages;
}

} // namespace

TEST(DataMemory, FreshImageHasNoTouchedPages)
{
    DataMemory mem(16 * DataMemory::pageBytes);
    EXPECT_EQ(mem.pageCount(), 16u);
    EXPECT_TRUE(touchedPages(mem).empty());
    EXPECT_EQ(mem.read(5 * DataMemory::pageBytes, 8), 0u);
    EXPECT_TRUE(touchedPages(mem).empty());     // reads touch nothing
}

TEST(DataMemory, ZeroedPageStaysTouchedButReadsZero)
{
    DataMemory mem(8 * DataMemory::pageBytes);
    const Addr at = 3 * DataMemory::pageBytes + 40;
    mem.write(at, 8, 0xdeadbeefull);
    mem.write(at, 8, 0);
    EXPECT_EQ(touchedPages(mem), std::vector<std::size_t>{3});
    EXPECT_TRUE(mem.pageIsZero(3));
}

TEST(DataMemory, StraddlingWriteMarksBothPages)
{
    DataMemory mem(8 * DataMemory::pageBytes);
    mem.write(2 * DataMemory::pageBytes - 3, 8, ~0ull);
    EXPECT_EQ(touchedPages(mem), (std::vector<std::size_t>{1, 2}));
    EXPECT_FALSE(mem.pageIsZero(1));
    EXPECT_FALSE(mem.pageIsZero(2));
}

TEST(DataMemory, OutOfBoundsWriteMarksNothing)
{
    DataMemory mem(2 * DataMemory::pageBytes);
    mem.write(2 * DataMemory::pageBytes, 1, 1);
    mem.write(2 * DataMemory::pageBytes - 4, 8, 1);    // straddles the end
    mem.write(~Addr{0} - 2, 8, 1);                      // wraps around
    EXPECT_TRUE(touchedPages(mem).empty());
}

TEST(DataMemory, ClearEmptiesTheTouchedSet)
{
    DataMemory mem(64 * DataMemory::pageBytes);
    for (std::size_t p : {0u, 9u, 63u})
        mem.write(p * DataMemory::pageBytes + 8, 4, 0x1234);
    EXPECT_EQ(touchedPages(mem), (std::vector<std::size_t>{0, 9, 63}));
    mem.clear();
    EXPECT_TRUE(touchedPages(mem).empty());
    EXPECT_EQ(mem.read(9 * DataMemory::pageBytes + 8, 4), 0u);
}

TEST(DataMemory, PartialLastPage)
{
    const std::size_t size = 2 * DataMemory::pageBytes + 100;
    DataMemory mem(size);
    EXPECT_EQ(mem.pageCount(), 3u);
    EXPECT_EQ(mem.pageLen(1), DataMemory::pageBytes);
    EXPECT_EQ(mem.pageLen(2), 100u);
    mem.write(size - 8, 8, 0x0102030405060708ull);
    EXPECT_EQ(touchedPages(mem), std::vector<std::size_t>{2});
    EXPECT_FALSE(mem.pageIsZero(2));

    std::vector<std::uint8_t> page(100, 0);
    page[99] = 7;
    DataMemory copy(size);
    copy.loadPage(2, page.data());
    EXPECT_EQ(touchedPages(copy), std::vector<std::size_t>{2});
    EXPECT_EQ(copy.read(size - 1, 1), 7u);
}

TEST(DataMemory, LoadPageMarksAndCopiesOnePage)
{
    DataMemory mem(4 * DataMemory::pageBytes);
    std::vector<std::uint8_t> page(DataMemory::pageBytes, 0xab);
    mem.loadPage(1, page.data());
    EXPECT_EQ(touchedPages(mem), std::vector<std::size_t>{1});
    EXPECT_EQ(mem.read(DataMemory::pageBytes - 1, 1), 0u);
    EXPECT_EQ(mem.read(DataMemory::pageBytes, 1), 0xabu);
    EXPECT_EQ(mem.read(2 * DataMemory::pageBytes - 1, 1), 0xabu);
    EXPECT_EQ(mem.read(2 * DataMemory::pageBytes, 1), 0u);
}
