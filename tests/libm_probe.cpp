/**
 * @file
 * What tests/no_fma_libm.sh needs to know about this process: whether
 * its C library is glibc, whether the CPU has FMA, and exp() of an
 * input where glibc's FMA and SSE2 variants of exp differ by one ulp,
 * printed exactly (hex float). CMake links one copy like the tests and
 * one like the CLI tools, so the check covers both link modes.
 */

#include <cmath>
#include <cstdio>

int
main()
{
#ifdef __GLIBC__
    const int glibc = 1;
#else
    const int glibc = 0;
#endif
#if defined(__x86_64__) || defined(__i386__)
    const int fma = __builtin_cpu_supports("fma") ? 1 : 0;
#else
    const int fma = 0;
#endif
    // volatile keeps the call at run time, in libm, not folded.
    volatile double x = -0x1.01782a489e04dp+5;
    std::printf("glibc=%d fma=%d exp=%a\n", glibc, fma, std::exp(x));
    return 0;
}
