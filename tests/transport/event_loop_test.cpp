#include "transport/event_loop.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <future>

#include "transport/socket_util.h"

namespace jbs::net {
namespace {

TEST(EventLoopTest, FdAddedBeforeStartFiresOnceReadable) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  Fd read_end(fds[0]);
  Fd write_end(fds[1]);
  ASSERT_TRUE(SetNonBlocking(read_end.get()).ok());

  EventLoop loop;
  std::promise<uint32_t> fired;
  bool first = true;
  ASSERT_TRUE(loop.Add(read_end.get(), /*want_read=*/true,
                       /*want_write=*/false,
                       [&](uint32_t events) {
                         char byte;
                         // Drain so level-triggered epoll goes quiet.
                         [[maybe_unused]] ssize_t n =
                             ::read(read_end.get(), &byte, 1);
                         if (first) fired.set_value(events);
                         first = false;
                       })
                  .ok());
  ASSERT_TRUE(loop.Start().ok());
  ASSERT_EQ(::write(write_end.get(), "x", 1), 1);
  auto events = fired.get_future();
  ASSERT_EQ(events.wait_for(std::chrono::seconds(5)),
            std::future_status::ready);
  EXPECT_NE(events.get() & EventLoop::kReadable, 0u);
  loop.Stop();
}

}  // namespace
}  // namespace jbs::net
