# su2cor: quantum-chromodynamics gather code. Integer index loads feed
# the addresses of FP loads over a large table: integer-load misses
# stall the AP directly while the overall miss ratio stays significant.
kernel su2cor

stream sIdx = strided(1M, 4, 4)
stream sS = strided(4K, 24)   # reused propagator block

# The index is loaded one iteration ahead (software pipelining), so an
# index miss is partially hidden: its consumer is a body-length away.
reg idx : int
stream gT = gather(64K) index idx

let t = loadf(gT)
let s = loadf(sS)

# Layered FP body: four ops on the loaded values, three combining
# those, and two loop-carried FMA reductions.
let l00 = fmul(t, s)
let l01 = fadd(s, t)
let l02 = fsub(t, s)
let l03 = fmul(s, t)
let l10 = fadd(l00, l01)
let l11 = fsub(l01, l02)
let l12 = fmul(l02, l03)
reg acc0 : fp
reg acc1 : fp
fma acc0 = l10, l12, acc0
fma acc1 = l00, l11, acc1

stream sOut = strided(4K, 24)  # block-local output
storef sOut, l11
loadi idx = sIdx               # next iteration's index
advance sIdx
advance sS
advance sOut

# Index arithmetic: two integer ops on a scratch register.
reg scratch : int
iadd scratch = scratch
ishift scratch = scratch
