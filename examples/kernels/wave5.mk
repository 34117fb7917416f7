# wave5: particle-in-cell plasma code. Indexed particle gathers with a
# data-dependent FP guard (branchf on a compare result): the branch
# outcome depends on loaded data, the worst case for fetch gating.
kernel wave5

stream sIdx = strided(1M, 4, 4)   # particle index list
stream sF = strided(4K, 24)       # resident field block
reg idx : int
reg bnd : fp
stream gE = gather(64K) index idx

let e = loadf(gE)
let f = loadf(sF)

# Cell-boundary test (90% skip), then a data-dependent FP guard.
let cnd = icmp(addr(sF))
branch cnd prob 0.9 skip 2
let fc = fcmp(f, bnd)
branchf fc prob 0.3

# Layered FP body: four ops on the loaded values, three combining
# those, and two loop-carried FMA reductions.
let l00 = fmul(e, f)
let l01 = fadd(f, e)
let l02 = fsub(e, f)
let l03 = fmul(f, e)
let l10 = fadd(l00, l01)
let l11 = fsub(l01, l02)
let l12 = fmul(l02, l03)
reg acc0 : fp
reg acc1 : fp
fma acc0 = l10, l12, acc0
fma acc1 = l00, l11, acc1

fmov bnd = l11
let idx2 = iadd(idx)
stream gS = gather(32K) index idx2
storef gS, l11
loadi idx = sIdx
advance sIdx
advance sF

# Index arithmetic: two integer ops on a scratch register.
reg scratch : int
iadd scratch = scratch
ishift scratch = scratch
