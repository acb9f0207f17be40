"""numpy's ``default_rng((master_seed, i)).standard_normal()`` in pure Python, bit for bit.

The population draw takes one normal variate per specimen, each from its own
``(master_seed, i)`` stream. This module keeps numpy's variates byte for byte without
loading numpy, whose import costs more than a whole default stair-case campaign. It
follows numpy's chain:

- ``SeedSequence``: the entropy as little-endian uint32 words, hash-mixed into a pool
  of four, then ``generate_state(4, uint64)``;
- ``PCG64``: M. E. O'Neill's 128-bit LCG with its XSL-RR output (HMC-CS-2014-0905);
- ``Generator.standard_normal``: numpy's ziggurat after G. Marsaglia and W. W. Tsang,
  "The Ziggurat Method for Generating Random Variables", J. Stat. Softw. 5(8), 2000.

The seeding runs once per population, for all specimens at once, as SIMD within a
register (L. Lamport, "Multiple byte processing with full-word instructions", CACM
18(8), 1975): word k of entropy j sits in 256-bit lane j of one Python int, so one
xor, multiplication by a constant or masked shift acts on every lane. A lane is 256
bits because PCG64's seeding multiplies a 129-bit sum by a 126-bit constant: no
product carries into the next lane. No lane borrows from the next either: the mix
L*x - R*y mod 2**32 is formed as L*x + R*2**32 - R*y, never below 0, and each
``>> 16`` is masked to the lane's low 16 bits. Each specimen takes its state, stepped
once, out of its lane: the ziggurat's fast path needs only that first output word,
and a rejection or the tail continues PCG64's stream from that state.

NEP 19 freezes numpy's bit streams but not the variates a ``Generator`` derives from
them, so the port also fixes the draw across numpy releases. The tables are numpy's
``wi_double``, ``ki_double`` and ``fi_double`` as compiled into
``numpy/random/lib/libnpyrandom.a`` (member ``src_distributions_distributions.c.o``),
each entry the big-endian hex of its 64 bits.
"""

from __future__ import annotations

import struct
from collections.abc import Iterator
from itertools import permutations
from math import exp, log1p

_M32 = 0xFFFFFFFF
_M64 = 0xFFFFFFFFFFFFFFFF
_M128 = (1 << 128) - 1
_LANE_BYTES = 32                              # a lane holds PCG64's 128x128-bit products
_MULT_A = 0x931E8875                          # SeedSequence's pool hash multiplier
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715       # SeedSequence's mix(x, y) = L*x - R*y
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_NOR_R = 3.6541528853610087963519472518       # ziggurat_nor_r: the base strip's edge
_NOR_INV_R = 0.27366123732975827203338247596  # ziggurat_nor_inv_r
_DOUBLE_UNIT = 2.0 ** -53                     # a double in [0, 1) is (word >> 11) * 2**-53


def _hash_constants(init: int, count: int, mult: int) -> tuple[int, ...]:
    """init * mult**k mod 2**32 for k = 0..count: hash k of SeedSequence xors
    constant k into its word and multiplies by constant k + 1."""
    constants = [init]
    for _ in range(count):
        constants.append(constants[-1] * mult & _M32)
    return tuple(constants)


_POOL_HASH = _hash_constants(0x43B0D7E5, 16, _MULT_A)       # the pool's first 16 hashes
_STATE_HASH = _hash_constants(0x8B51F9DD, 8, 0x58F38DED)    # generate_state's 8 words
_ROUNDS = tuple(permutations(range(4), 2))  # (source, target) pool words of the 12 mixes


def _table(kind: str, text: str) -> tuple:
    return struct.unpack(f">256{kind}", bytes.fromhex(text))


_WI = _table("d", """
    3ccf493b7815d9793c8b8d0be3fdf6c63c9250af3c2c5bb43c957cb938443b613c9801fce82fa70c3c9a230c2e4cd0bc
    3c9c004d2f3861f73c9dac2f5a7472743c9f32482d4cd5c33ca04d32278ebbad3ca0f5053b025d433ca192a697413677
    3ca227a28f7a1af53ca2b52e3863d8803ca33c3fc05791f53ca3bd9ec1a2b12f3ca439ef8dff9b553ca4b1bb363dfea7
    3ca52575621ad3743ca59580a707ce963ca60231cfd97eea3ca66bd261a37c3d3ca6d2a2920005703ca736dad346f8a6
    3ca798ad10b32a773ca7f845ad46f5433ca855cc53430a773ca8b1649e7b769a3ca90b2ea94ecf983ca96347822c1eea
    3ca9b9c98e38c5463caa0eccdca4a72c3caa62676d77cd593caab4ad6e1016303cab05b16d136c9c3cab558487427a29
    3caba4368e529f3a3cabf1d62abf82323cac3e70f9594ef33cac8a13a5323b613cacd4c9fe72268b3cad1e9f0e80b748
    3cad679d29e41f103cadafce0023b8c33cadf73aa9f176533cae3debb5d2edfe3cae83e9337a6f003caec93abdf982ce
    3caf0de784f062263caf51f654d8f6883caf956d9e87d7ae3cafd8537dfa2eac3cb00d56e04234ec3cb02e40f5398f9a
    3cb04eea9e16a5fc3cb06f565b72a0103cb08f869071f40b3cb0af7d84bc61133cb0cf3d664bcc7f3cb0eec84b16086b
    3cb10e20329515ee3cb12d4707310fbe3cb14c3e9f8e91413cb16b08bfc4201e3cb189a71a78da343cb1a81b51ee6d88
    3cb1c666f8f82acb3cb1e48b93e0d42e3cb2028a9940a09f3cb2206572c4c6e93cb23e1d7de9c31f3cb25bb40ca96bfb
    3cb2792a661dd37f3cb29681c719d71b3cb2b3bb62b82eda3cb2d0d862e1b8533cb2edd9e8cba98e3cb30ac10d6e48d7
    3cb3278ee1f4b9303cb3444470265ea13cb360e2baca52d53cb37d6abe05586a3cb399dd6fb2b2643cb3b63bbfb83d03
    3cb3d28698561de03cb3eebede725a833cb40ae571e09e743cb426fb2da6745d3cb44300e83c30a43cb45ef773cac75d
    3cb47adf9e66c3363cb496ba32488f2f3cb4b287f602415d3cb4ce49acb311dc3cb4ea001638a6053cb505abef5e5562
    3cb5214df20a8b5a3cb53ce6d56a664f3cb558774e1bb2c83cb574000e555f783cb58f81c60e85143cb5aafd23241b59
    3cb5c672d17d733d3cb5e1e37b2f8cd33cb5fd4fc89f5e383cb618b860a31fc33cb6341de8a2b0a23cb64f8104b7260b
    3cb66ae257c996723cb6864283b131373cb6a1a22950b2b13cb6bd01e8b343bb3cb6d8626128d3523cb6f3c43161f854
    3cb70f27f78b68eb3cb72a8e516914c63cb745f7dc70eedc3cb7616535e5731f3cb77cd6faeff4493cb7984dc8babd93
    3cb7b3ca3c8b14093cb7cf4cf3db22fb3cb7ead68c73dee73cb80667a486ea1f3cb82200dac886763cb83da2ce899f15
    3cb8594e1fd1f5bd3cb875036f7a7ec53cb890c35f47f72d3cb8ac8e9205c0433cb8c865aba10c9c3cb8e44951446a27
    3cb9003a2973b58f3cb91c38dc2883473cb9384612ef0afc3cb954627903a28a3cb9708ebb70d5ee3cb98ccb892e2a31
    3cb9a919933f99bf3cb9c5798cd5d92c3cb9e1ec2b6f74113cb9fe7226fad24a3cba1b0c39f936923cba37bb21a2c85b
    3cba547f9e0bbb883cba715a724aa9a43cba8e4c64a0313d3cbaab563e9ff1083cbac878cd5af5ce3cbae5b4e18bb336
    3cbb030b4fc3a11a3cbb207cf09a985b3cbb3e0aa0e00c003cbb5bb541ce3d033cbb797db93f89273cbb9764f1e5f73c
    3cbbb56bdb85256e3cbbd3936b2ec0a23cbbf1dc9b81ae833cbc10486cec16a03cbc2ed7e5f07a2d3cbc4d8c136e0d1c
    3cbc6c6608ec87053cbc8b66e0eba6173cbcaa8fbd36a2ab3cbcc9e1c73bd6903cbce95e3068e0373cbd0906328b8f6e
    3cbd28db1037ef203cbd48de1533c6473cbd691096e7f1233cbd8973f4d7fba53cbdaa0999206e703cbdcad2f8fc490e
    3cbdebd195522e373cbe0d06fb49d21c3cbe2e74c4ea46f63cbe501c99c1d1883cbe72002f97fe253cbe94214b2abf0a
    3cbeb681c0f76f083cbed9237610a73a3cbefc086101eca93cbf1f328ac253213cbf42a40fb74d6d3cbf665f20c90168
    3cbf8a66048997823cbfaebb187122bf3cbfd360d22fe7853cbff859c118f60b3cc00ed447d3a0753cc021a8028fc947
    3cc034a983a902ab3cc047da4e3ef5c73cc05b3bf6adb37e3cc06ed023a726683cc082988f632e173cc0969708e8a254
    3cc0aacd7571c0c43cc0bf3dd1eed4483cc0d3ea34aa3d303cc0e8d4cf1165933cc0fdffefa69fb63cc1136e04207041
    3cc129219bbb5d353cc13f1d69c4096d3cc1556448602e3b3cc16bf93b9deef33cc182df74d212613cc19a1a564eebac
    3cc1b1ad777f2f8e3cc1c99ca971a6943cc1e1ebfbe4ae393cc1fa9fc2e2d9013cc213bc9d04cc813cc22d477a6fd3ee
    3cc24745a4ac9c243cc261bcc77658e03cc27cb2faa8592e3cc2982ecd770e783cc2b437532a0a523cc2d0d43196db97
    3cc2ee0db1a978f53cc30becd256aeee3cc32a7b5e68a4a33cc349c405ae12a33cc369d27a33a8403cc38ab39256410a
    3cc3ac7570ae88fa3cc3cf27b31704a63cc3f2dbaa60f4753cc417a49cb9e5da3cc43d9815545e943cc464ce44a73a15
    3cc48d62759c43bc3cc4b7739d6b5a273cc4e3250dcd89023cc5109f53e9ac413cc54011523a7e423cc571b1a94ae41b
    3cc5a5c08b718dd93cc5dc8a243ad0fe3cc61669cf861e4c3cc653ce7b006aea3cc69540be9fe5c33cc6db6b8d09e232
    3cc72728f05f7a343cc77995560906733cc7d42df4d6ce8c3cc839030529f2343cc8ab0fbfaa7c143cc92ee0946f4496
    3cc9cbee014057ab3cca8fdc7894775a3ccb981f3878fdb13ccd3bb48209ad33""")
_KI = _table("Q", """
    000ef33d8025ef6a0000000000000000000c08be98fbc6a8000da354fabd8142000e51f67ec1eeea000eb255e9d3f77e
    000eef4b817ecab9000f19470afa44aa000f37ed61ffcb18000f4f469561255c000f61a5e41ba396000f707a755396a4
    000f7cb2ec28449a000f86f10c6357d3000f8fa6578325de000f9724c74dd0da000f9da907dbf509000fa360f581fa74
    000fa86fde5b4bf8000facf160d354dc000fb0fb6718b90f000fb49f8d5374c6000fb7ec2366fe77000fbaece9a1e50e
    000fbdab9d040bed000fc03060ff6c57000fc2821037a248000fc4a67ae25bd1000fc6a2977aee31000fc87aa92896a4
    000fca325e4bde85000fcbcce902231a000fcd4d12f839c4000fceb54d8fec99000fd007bf1dc930000fd1464dd6c4e6
    000fd272a8e2f450000fd38e4ff0c91e000fd49a9990b478000fd598b8920f53000fd689c08e99ec000fd76ea9c8e832
    000fd848547b08e8000fd9178bad2c8c000fd9dd07a7add2000fda9970105e8c000fdb4d5dc02e20000fdbf95c5bfcd0
    000fdc9debb99a7d000fdd3b8118729d000fddd288342f90000fde6364369f64000fdeee708d514e000fdf7401a6b42e
    000fdff46599ed40000fe06fe4bc24f2000fe0e6c225a258000fe1593c28b84c000fe1c78cbc3f99000fe231e9db1caa
    000fe29885da1b91000fe2fb8fb54186000fe35b33558d4a000fe3b799d0002a000fe410e99ead7f000fe46746d47734
    000fe4bad34c095c000fe50baed29524000fe559f74ebc78000fe5a5c8e41212000fe5ef3e138689000fe6366fd91078
    000fe67b75c6d578000fe6be661e11aa000fe6ff55e5f4f2000fe73e5900a702000fe77b823e9e39000fe7b6e37070a2
    000fe7f08d774243000fe8289053f08c000fe85efb35173a000fe893dc840864000fe8c741f0cebc000fe8f9387d4ef6
    000fe929cc879b1d000fe95909d388ea000fe986fb939aa2000fe9b3ac714866000fe9df2694b6d5000fea0973abe67c
    000fea329cf166a4000fea5aab32952c000fea81a6d5741a000feaa797de1cf0000feacc85f3d920000feaf07865e63c
    000feb13762fec13000feb3585fe2a4a000feb56ae3162b4000feb76f4e284fa000feb965fe62014000febb4f4cf9d7c
    000febd2b8f449d0000febefb16e2e3e000fec0be31ebde8000fec2752b15a15000fec42049dafd3000fec5bfd29f196
    000fec75406ceef4000fec8dd2500cb4000feca5b6911f12000fecbcf0c427fe000fecd38454fb15000fece97488c8b3
    000fecfec47f91b7000fed1377358528000fed278f844903000fed3b10242f4c000fed4dfbad586e000fed605498c3dd
    000fed721d414fe8000fed8357e4a982000fed9406a42cc8000feda42b85b704000fedb3c8746ab4000fedc2df416652
    000fedd171a46e52000feddf813c8ad3000feded0f909980000fedfa1e0fd414000fee06ae124bc4000fee12c0d95a06
    000fee1e579006e0000fee29734b6524000fee34150ae4bc000fee3e3db89b3c000fee47ee2982f4000fee51271db086
    000fee59e9407f41000fee623528b42e000fee6a0b5897f1000fee716c3e077a000fee7858327b82000fee7ecf7b06ba
    000fee84d2484ab2000fee8a60b66343000fee8f7accc851000fee94207e25da000fee9851a829ea000fee9c0e13485c
    000fee9f557273f4000feea22762ccae000feea4836b42ac000feea668fc2d71000feea7d76ed6fa000feea8ce04fa0a
    000feea94be8333b000feea950296410000feea8d9c0075e000feea7e7897654000feea678481d24000feea48aa29e83
    000feea21d22e4da000fee9f2e352024000fee9bbc26af2e000fee97c524f2e4000fee93473c0a3a000fee8e40557516
    000fee88ae369c7a000fee828e7f3dfd000fee7bdea7b888000fee749bff37ff000fee6cc3a9bd5e000fee64529e007e
    000fee5b45a32888000fee51994e57b6000fee474a0006cf000fee3c53e12c50000fee30b2e02ad8000fee2462ad8205
    000fee175eb83c5a000fee09a22a1447000fedfb27e349cc000fedebea76216c000feddbe422047e000fedcb0ece39d3
    000fedb964042cf4000feda6dce938c9000fed937237e98d000fed7f1c38a836000fed69d2b9c02b000fed538d06ae00
    000fed3c41dea422000fed23e76a2fd8000fed0a732fe644000fecefda07fe34000fecd4100eb7b8000fecb708956eb4
    000fec98b61230c1000fec790a0da978000fec57f50f31fe000fec356686c962000fec114cb4b335000febeb948e6fd0
    000febc429a0b692000feb9af5ee0cdc000feb6fe1c98542000feb42d3ad1f9e000feb13b00b2d4b000feae2591a02e9
    000feaaeae992257000fea788d8ee326000fea3fcffd73e5000fea044c8dd9f6000fe9c5d62f563b000fe9843ba947a4
    000fe93f471d4728000fe8f6bd76c5d6000fe8aa5dc4e8e6000fe859e07ab1ea000fe804f690a940000fe7ab488233c0
    000fe74c751f6aa5000fe6e8102aa202000fe67da0b6abd8000fe60c9f38307e000fe5947338f742000fe51470977280
    000fe48bd436f458000fe3f9bffd1e37000fe35d35eeb19c000fe2b5122fe4fe000fe20003995557000fe13c82788314
    000fe068c4ee67b0000fdf82b02b71aa000fde87c57efeaa000fdd7509c63bfd000fdc46e529bf13000fdaf8f82e0282
    000fd985e1b2ba75000fd7e6ef48cf04000fd613adbd650b000fd40149e2f012000fd1a1a7b4c7ac000fcee204761f9e
    000fcba8d85e11b2000fc7d26ecd2d22000fc32b2f1e22ed000fbd6581c0b83a000fb606c4005434000fac40582a2874
    000f9e971e014598000f89fa48a41dfc000f66c5f7f0302c000f1a5a4b331c4a""")
_FI = _table("d", """
    3ff00000000000003fef446ac979f0873feeb7545b6ca9153fee3f11e027f0773fedd36fa704de953fed70920657bcf2
    3fed144978a119dc3fecbd33a8a72deb3fec6a5ecea9787f3fec1b1cd9eebaea3febceeb4ee1dc823feb85653a8ff552
    3feb3e3a8234dd103feaf92a3f6ce8a23feab5fef17a25043fea748bd550c9e13fea34aafdf5af0f3fe9f63bee651fd8
    3fe9b9228d2406813fe97d4657617ac13fe94291c21b7a473fe908f1bd31714f3fe8d0554fe60aa83fe898ad48badf02
    3fe861ebfc37bcac3fe82c050f56cf6e3fe7f6ed4b20e2cb3fe7c29a779c68583fe78f033ca0b0d53fe75c1f0770d856
    3fe729e5f43f6d123fe6f850baea7aee3fe6c7589e635a893fe696f75e513b2a3fe667272a92e3233fe637e298550c18
    3fe60924988026653fe5dae86f4aff6a3fe5ad29acc85c893fe57fe4264c8d8f3fe55313f08d9e463fe526b55a656cd5
    3fe4fac4e820b6673fe4cf3f4f494ec03fe4a42172dc52783fe479685fdf50123fe44f114a4936793fe425198a355fe3
    3fe3fb7e99585b823fe3d23e10af31a33fe3a955a662cd0e3fe380c32bda00d53fe358848bf550e93fe33097c9703a35
    3fe308fafd6438ef3fe2e1ac55ea3bee3fe2baaa14d7954a3fe293f28e93cd153fe26d84290504ed3fe2475d5a90db84
    3fe2217ca92ff7f23fe1fbe0a99296203fe1d687fe5499693fe1b171573fd1113fe18c9b709b3c503fe16805128639da
    3fe143ad105ea99c3fe11f9248311f383fe0fbb3a23259133fe0d810104142a03fe0b4a68d70d9ae3fe091761d995d81
    3fe06e7dccf03c363fe04bbcafa63f2e3fe02931e18b822a3fe006dc85b8cac43fdfc9778c7bbda13fdf859da7a900ca
    3fdf4229cb2f7af33fdeff1a717e8f953fdebc6e20bd1f543fde7a236a4ec3c53fde3838ea5f9b853fddf6ad47763a09
    3fddb57f320b56b13fdd74ad6426de333fdd3436a10210803fdcf419b4ae5b6d3fdcb45573c0a8483fdc74e8bb00d7c7
    3fdc35d26f1d2cb83fdbf7117c616a173fdbb8a4d6716d913fdb7a8b7807131b3fdb3cc462b331ca3fdaff4e9ea18552
    3fdac2293a5f5a9e3fda85534aa4d8803fda48cbea20c04d3fda0c923946843e3fd9d0a55e1e93df3fd995048418c0c6
    3fd959aedbe09f933fd91ea39b33cb173fd8e3e1fcb9f1153fd8a9693fde91883fd86f38a8ac5ab63fd8354f7faa0dd9
    3fd7fbad11b8d9113fd7c250aff414b03fd78939af9252eb3fd7506769c7b1ed3fd717d93ba9614c3fd6df8e86124caa
    3fd6a786ad88de213fd66fc11a25cbe23fd6383d377be5153fd600fa7480d2c83fd5c9f84376c2443fd5933619d6eebe
    3fd55cb3703d01003fd5266fc2533bed3fd4f06a8ebf6d923fd4baa357109ca23fd485199fad6ad43fd44fccefc324fe
    3fd41abcd1357a193fd3e5e8d08ed2db3fd3b1507cf143ae3fd37cf3680813793fd348d125f9d19e3fd314e94d5af62f
    3fd2e13b772107663fd2adc73e963fdd3fd27a8c414db11e3fd2478a1f17de893fd214c079f7cc9e3fd1e22ef6188116
    3fd1afd539c2f0503fd17db2ed5454e83fd14bc7bb34ee673fd11a134fcf24233fd0e895598709c43fd0b74d88b242da
    3fd0863b8f9043363fd0555f2242e9d93fd024b7f6c7747e3fcfe88b89df93c53fcf88108cb832353fcf27fe6ce998d2
    3fcec854a4c99c443fce6912b2283cdd3fce0a38164571843fcdabc455c7900a3fcd4db6f8b2514f3fccf00f8a5e6fcc
    3fcc92cd9971df533fcc35f0b7d89d473fcbd9787abe18a13fcb7d647a8731aa3fcb21b452ccd13a3fcac667a2571807
    3fca6b7e0b19267e3fca10f7322d7e3d3fc9b6d2bfd2fe5a3fc95d105f6a7c273fc903afbf74fa693fc8aab09192815b
    3fc852128a819a383fc7f9d5621f71753fc7a1f8d368a3233fc74a7c9c7ab5a63fc6f3607e9647163fc69ca43e21f25c
    3fc64647a2adf19c3fc5f04a76f883f93fc59aac88f31d6c3fc5456da9c868353fc4f08dade31fc13fc49c0c6cf5ce2d
    3fc447e9c20375d53fc3f4258b6931ae3fc3a0bfaae8d7ee3fc34db805b4ab883fc2fb0e847c2a653fc2a8c3137a071a
    3fc256d5a2835eb73fc2054625183c343fc1b41492757d423fc16340e5a82d633fc112cb1da26eb93fc0c2b33d5209ba
    3fc072f94bb8bf853fc0239d54067d2a3fbfa93ecb6b222c3fbf0bff29520e1c3fbe6f7bf29aa54b3fbdd3b56176e88f
    3fbd38abb9bd91e53fbc9e5f493b740a3fbc04d0680b10153fbb6bff78f2e2333fbad3ece9caf6333fba3c9933ea6286
    3fb9a604dc9d5b193fb9103075a4a0ab3fb87b1c9dbf28523fb7e6ca013eefd63fb753395aaa11763fb6c06b73694a4c
    3fb62e6124854d183fb59d1b577466a43fb50c9b06fa2bae3fb47ce1401b22133fb3edef23269a863fb35fc5e4d93e70
    3fb2d266cf9b31113fb245d344dd0d913fb1ba0cbe97897d3fb12f14d0f2179d3fb0a4ed2c1596253fb01b979e30e497
    3faf262c2b6c6e353fae16d547b251813fad092efeadf1623fabfd3e0f282a2c3faaf30790385f703fa9ea90f9295563
    3fa8e3e02a68b5ab3fa7defb77af271e3fa6dbe9b398d0643fa5dab23cf2add43fa4db5d0e11275d3fa3ddf2ce98eecb
    3fa2e27ce83df4973fa1e9059f1f6abc3fa0f1982e9680113f9ff881d718a5c43f9e121adb828c753f9c301983cd091a
    3f9a529f4e22ebf83f9879d1b600c10a3f96a5daf40bbf823f94d6eaf2fbb0643f930d388dab5e133f91490334603012
    3f8f152a4f72dd493f8ba48d274f8fac3f8841040d8da4783f84eb96421acfe03f81a59229952f923f7ce160f8ec6837
    3f769ea8d90cb85d3f708a1f03b0b1fd3f655f9f43c1b0673f54a605b6b9f70f""")


def _uint32_words(value: int) -> list[int]:
    """SeedSequence's uint32 words of an integer >= 0, least significant first; 0 is
    one word."""
    return [value >> shift & _M32 for shift in range(0, value.bit_length() or 1, 32)]


def _pcg64_seeded(entropies: list[list[int]]) -> list[tuple[int, int]]:
    """(state, increment) of PCG64(SeedSequence(entropy)) after its first output word,
    for each of the entropies (uint32 words, all of one length), all in one pass over
    the lanes: each of the first four words (0 past the end) hashed into the pool, each
    pool word hashed and mixed into the other three, each word past the fourth hashed
    and mixed into all four; then eight hashed pool words, paired into four uint64,
    seed PCG64, which steps once."""
    n, lane = len(entropies), "I" + "x" * (_LANE_BYTES - 4)
    packing = "<" + lane * n  # one length, so that word k of every entropy is one column
    ones = int.from_bytes(struct.pack(packing, *[1] * n), "little")
    m16, m32, m128 = 0xFFFF * ones, _M32 * ones, _M128 * ones
    borrow = (_MIX_R << 32) * ones  # mix as L*x + R*2**32 - R*y: no lane goes below 0

    def hashed(x: int, a: int, b: int) -> int:
        # hash k xors a_k into its word, multiplies by a_k+1 and xors in the high half
        h = (x ^ a * ones) * b & m32
        return h ^ h >> 16 & m16

    words = [int.from_bytes(struct.pack(packing, *column), "little")
             for column in zip(*entropies)]
    pool_hash = _POOL_HASH if len(words) <= 4 else _hash_constants(
        _POOL_HASH[0], 4 * len(words), _MULT_A)
    cells = [hashed(x, a, b)
             for x, a, b in zip((*words, 0, 0, 0, 0)[:4], pool_hash, pool_hash[1:])]
    cells += words[4:]
    # each pool word mixed into the other three, then each word past the fourth into all four
    rounds = _ROUNDS + tuple([(k, target) for k in range(4, len(words)) for target in range(4)])
    for (source, target), a, b in zip(rounds, pool_hash[4:], pool_hash[5:]):
        mix = _MIX_L * cells[target] + borrow - _MIX_R * hashed(cells[source], a, b) & m32
        cells[target] = mix ^ mix >> 16 & m16
    g0, g1, g2, g3, g4, g5, g6, g7 = [hashed(cells[k % 4], a, b)
                                      for k, a, b in zip(range(8), _STATE_HASH, _STATE_HASH[1:])]
    # PCG64's srandom: state = ((inc + seed) * MULT + inc) mod 2**128, inc = 2*seq + 1
    increment = (g5 << 97 | g4 << 65 | g7 << 33 | g6 << 1) & m128 | ones
    state = ((increment + (g1 << 96 | g0 << 64 | g3 << 32 | g2)) * _PCG64_MULT
             + increment) & m128
    state = (state * _PCG64_MULT + increment) & m128
    size = _LANE_BYTES * n
    states, increments = state.to_bytes(size, "little"), increment.to_bytes(size, "little")
    return [(int.from_bytes(states[j:j + 16], "little"),
             int.from_bytes(increments[j:j + 16], "little"))
            for j in range(0, size, _LANE_BYTES)]


def _xsl_rr(state: int) -> int:
    """PCG64's output word of a state: the xor of its halves rotated right by its top
    six bits."""
    word = (state >> 64 ^ state) & _M64
    turn = state >> 122
    return (word >> turn | word << 64 - turn) & _M64


def _pcg64_words(state: int, increment: int) -> Iterator[int]:
    """PCG64's output words after state: step the LCG, then output (XSL-RR)."""
    while True:
        state = (state * _PCG64_MULT + increment) & _M128
        yield _xsl_rr(state)


def _standard_normal(word: int, state: int, increment: int) -> float:
    """numpy's random_standard_normal from the 64-bit word PCG64 output on stepping to
    state: the low 8 bits pick a strip, the next one the sign and the next 52 the
    abscissa. A point outside the strip's inner box is kept by the density test, or
    for strip 0 is drawn from the tail past _NOR_R by Marsaglia's exponential method;
    a rejected point is drawn again from the next word. Those paths read the words
    after state; the fast path reads none."""
    words = None
    while True:
        idx = word & 0xFF
        word >>= 8
        rabs = word >> 1 & 0xFFFFFFFFFFFFF
        x = rabs * _WI[idx]
        if word & 1:
            x = -x
        if rabs < _KI[idx]:
            return x
        words = words or _pcg64_words(state, increment)
        if idx == 0:
            while True:
                xx = -_NOR_INV_R * log1p(-((next(words) >> 11) * _DOUBLE_UNIT))
                yy = -log1p(-((next(words) >> 11) * _DOUBLE_UNIT))
                if yy + yy > xx * xx:
                    return -(_NOR_R + xx) if rabs >> 8 & 1 else _NOR_R + xx
        if ((_FI[idx - 1] - _FI[idx]) * ((next(words) >> 11) * _DOUBLE_UNIT) + _FI[idx]
                < exp(-0.5 * x * x)):
            return x
        word = next(words)


def standard_normals(master_seed: int, n: int) -> list[float]:
    """numpy's default_rng((master_seed, i)).standard_normal() for i in range(n), for
    an integer master_seed >= 0 and n <= 2**32."""
    seed_words = _uint32_words(master_seed)
    # i < 2**32 is one uint32 word, so all n entropies have one length
    return [_standard_normal(_xsl_rr(state), state, increment)
            for state, increment in _pcg64_seeded([seed_words + [i] for i in range(n)])]
